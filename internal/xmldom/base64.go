package xmldom

import (
	"encoding/base64"
	"encoding/binary"
)

// DecodeBase64 decodes the character content of an XML Schema
// base64Binary element (ds:X509Certificate, ds:DigestValue,
// xenc:CipherValue, ...): standard padded base64 that a serializer may
// wrap with spaces, tabs and line breaks anywhere. It accepts and
// rejects exactly what the standard decoder does once the whitespace is
// stripped, and decodes in one pass straight into its one allocation,
// the output.
func DecodeBase64(s string) ([]byte, error) {
	dst := make([]byte, base64.StdEncoding.DecodedLen(len(s)))
	n, err := decodeBase64(dst, s)
	return dst[:n], err
}

// AppendDecodeBase64 appends to dst what DecodeBase64 returns for s, and
// the same error. A caller that recycles dst with room for the decoded
// bytes decodes without allocating; a short dst grows once.
func AppendDecodeBase64(dst []byte, s string) ([]byte, error) {
	n := len(dst)
	need := n + base64.StdEncoding.DecodedLen(len(s))
	if cap(dst) < need {
		dst = append(dst[:cap(dst)], make([]byte, need-cap(dst))...)
	}
	m, err := decodeBase64(dst[n:need], s)
	return dst[:n+m], err
}

// b64[p][c] is the value of the base64 symbol c shifted into place p of
// a quantum (b64[3][c] is the bare value), so a quantum decodes as four
// lookups ORed together and one test of b64Off. Every other byte has
// b64Off set, and b64[3] also tells whitespace and padding apart.
var b64 [4][256]uint32

const (
	b64Off   = 1 << 31    // not a symbol
	b64Space = b64Off | 1 // XML whitespace: skipped
	b64Pad   = b64Off | 2 // '='
)

func init() {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for p := range b64 {
		for c := range b64[p] {
			b64[p][c] = b64Off
		}
		for v := 0; v < len(alphabet); v++ {
			b64[p][alphabet[v]] = uint32(v) << (18 - 6*p)
		}
	}
	b64[3][' '], b64[3]['\t'], b64[3]['\n'], b64[3]['\r'] = b64Space, b64Space, b64Space, b64Space
	b64[3]['='] = b64Pad
}

// decodeBase64 decodes s into dst, which has room for
// DecodedLen(len(s)) bytes, and returns how many it wrote. Runs of eight
// symbols decode as two quanta and one 8-byte store while dst has room
// for it, then as single quanta; whitespace, padding and errors take the
// symbol-at-a-time path, which also finishes a quantum a line break
// split. An error is a base64.CorruptInputError at the offset in s of
// the byte that made the text invalid, or of its end.
func decodeBase64(dst []byte, s string) (int, error) {
	t0, t1, t2, t3 := &b64[0], &b64[1], &b64[2], &b64[3]
	n, i := 0, 0
	var q uint32 // symbols of the open quantum, 6 bits each
	k := 0       // how many
	for i < len(s) {
		if k == 0 {
			for ; i+8 <= len(s) && n+8 <= len(dst); i += 8 {
				b := s[i : i+8]
				x := t0[b[0]] | t1[b[1]] | t2[b[2]] | t3[b[3]]
				y := t0[b[4]] | t1[b[5]] | t2[b[6]] | t3[b[7]]
				if (x|y)&b64Off != 0 {
					break
				}
				binary.BigEndian.PutUint64(dst[n:], uint64(x)<<40|uint64(y)<<16)
				n += 6
			}
			for ; i+4 <= len(s); i += 4 {
				b := s[i : i+4]
				x := t0[b[0]] | t1[b[1]] | t2[b[2]] | t3[b[3]]
				if x&b64Off != 0 {
					break
				}
				d := dst[n : n+3]
				d[0], d[1], d[2] = byte(x>>16), byte(x>>8), byte(x)
				n += 3
			}
			if i == len(s) {
				break
			}
		}
		switch c := t3[s[i]]; {
		case c < 64:
			q, k = q<<6|c, k+1
			if k == 4 {
				d := dst[n : n+3]
				d[0], d[1], d[2] = byte(q>>16), byte(q>>8), byte(q)
				n, q, k = n+3, 0, 0
			}
		case c == b64Pad:
			return decodePadding(dst, n, s, i, q, k)
		case c != b64Space:
			return n, corrupt(i)
		}
		i++
	}
	if k != 0 {
		return n, corrupt(len(s))
	}
	return n, nil
}

// decodePadding finishes text whose '=' at s[i] follows the k symbols
// q of an open quantum: "xx==" ends one byte, "xxx=" two, and only
// whitespace may follow.
func decodePadding(dst []byte, n int, s string, i int, q uint32, k int) (int, error) {
	if k < 2 {
		return n, corrupt(i)
	}
	i++
	if k == 2 {
		for i < len(s) && b64[3][s[i]] == b64Space {
			i++
		}
		if i == len(s) || s[i] != '=' {
			return n, corrupt(i)
		}
		i++
	}
	for i < len(s) && b64[3][s[i]] == b64Space {
		i++
	}
	if i < len(s) {
		return n, corrupt(i)
	}
	if k == 2 {
		dst[n] = byte(q >> 4)
		return n + 1, nil
	}
	dst[n], dst[n+1] = byte(q>>10), byte(q>>2)
	return n + 2, nil
}

// corrupt reports invalid text at offset i, as the standard decoder
// does.
//
//discvet:coldpath error path
func corrupt(i int) error { return base64.CorruptInputError(i) }

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
