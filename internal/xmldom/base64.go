package xmldom

import "encoding/base64"

// DecodeBase64 decodes the character content of an XML Schema
// base64Binary element (ds:X509Certificate, ds:DigestValue,
// xenc:CipherValue, ...): standard padded base64 that a serializer may
// wrap with spaces, tabs and line breaks anywhere. It drops that
// whitespace into one copy and decodes the copy straight into the
// output, with no string conversion in between.
func DecodeBase64(s string) ([]byte, error) {
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
