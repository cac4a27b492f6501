package xmldom

import (
	"encoding/base64"
	"strings"
)

// DecodeBase64 decodes the character content of an XML Schema
// base64Binary element (ds:X509Certificate, ds:DigestValue,
// xenc:CipherValue, ...): standard padded base64 that a serializer may
// wrap with spaces, tabs and line breaks anywhere. The standard decoder
// already skips CR and LF, so text with no space or tab — every
// CipherValue the authoring tools write — decodes straight into the
// output. Otherwise the whitespace is dropped into one copy first, and
// that copy is decoded, with no string conversion in between.
func DecodeBase64(s string) ([]byte, error) {
	if strings.IndexByte(s, ' ') < 0 && strings.IndexByte(s, '\t') < 0 {
		return base64.StdEncoding.DecodeString(s)
	}
	compact := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		default:
			compact = append(compact, s[i])
		}
	}
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(compact)))
	n, err := base64.StdEncoding.Decode(dst, compact)
	return dst[:n], err
}
