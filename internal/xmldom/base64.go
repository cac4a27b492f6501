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
	compact := AppendStripped(make([]byte, 0, len(s)), s)
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(compact)))
	n, err := base64.StdEncoding.Decode(dst, compact)
	return dst[:n], err
}

// AppendDecodeBase64 appends to dst what DecodeBase64 returns for s, and
// the same error. Text with no space or tab decodes straight from s
// (the []byte conversion is read-only and does not escape, so it makes
// no copy); other text is stripped into dst's spare capacity, past the
// decoded bytes' room, and decoded from there. A caller that recycles
// dst with capacity for both decodes without allocating; a short dst
// grows once.
func AppendDecodeBase64(dst []byte, s string) ([]byte, error) {
	enc := base64.StdEncoding
	n := len(dst)
	room := enc.DecodedLen(len(s))
	clean := strings.IndexByte(s, ' ') < 0 && strings.IndexByte(s, '\t') < 0
	need := n + room
	if !clean {
		need += len(s)
	}
	if cap(dst) < need {
		dst = append(dst[:cap(dst)], make([]byte, need-cap(dst))...)
	}
	var m int
	var err error
	if clean {
		m, err = enc.Decode(dst[n:n+room], []byte(s))
	} else {
		m, err = enc.Decode(dst[n:n+room], AppendStripped(dst[n+room:n+room], s))
	}
	return dst[:n+m], err
}

// AppendStripped appends s to dst without its XML whitespace (space,
// TAB, LF, CR), copying the runs between them whole. What it appends is
// exactly the text DecodeBase64 decodes, so the decoded bytes are a
// function of it.
func AppendStripped(dst []byte, s string) []byte {
	seg := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' && (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
			dst = append(dst, s[seg:i]...)
			seg = i + 1
		}
	}
	return append(dst, s[seg:]...)
}
