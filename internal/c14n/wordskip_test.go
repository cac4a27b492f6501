package c14n

import (
	"bytes"
	"strings"
	"testing"
)

// oracleAppendText is the byte loop appendText replaced.
func oracleAppendText(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); i++ {
		var rep string
		switch s[i] {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '>':
			rep = "&gt;"
		case '\r':
			rep = "&#xD;"
		default:
			continue
		}
		dst = append(dst, s[last:i]...)
		dst = append(dst, rep...)
		last = i + 1
	}
	return append(dst, s[last:]...)
}

// TestAppendTextMatchesByteLoop: every byte value at each of 16 offsets
// in a clean run escapes as the byte loop escapes it, from a string and
// from a byte slice, alone and with a second special byte further on.
func TestAppendTextMatchesByteLoop(t *testing.T) {
	for off := 0; off < 16; off++ {
		for c := 0; c < 256; c++ {
			for _, tail := range []string{"clean tail run", "tail & more"} {
				b := []byte(strings.Repeat("a", off) + "?" + tail)
				b[off] = byte(c)
				want := oracleAppendText([]byte("pre"), string(b))
				if got := appendText([]byte("pre"), string(b)); !bytes.Equal(got, want) {
					t.Fatalf("string, byte %#x at %d: %q, byte loop %q", c, off, got, want)
				}
				if got := appendText([]byte("pre"), b); !bytes.Equal(got, want) {
					t.Fatalf("bytes, byte %#x at %d: %q, byte loop %q", c, off, got, want)
				}
			}
		}
	}
}

// wordSkipDocs are FuzzStreamDifferential seeds that put each byte the
// scanner's and appendText's word skips stop at against word offsets
// 0-7 of a text run and of a CDATA section ("]]>" straddling a word
// among them), and a CR at the end of the scanner's first 32 KiB read
// window.
var wordSkipDocs = func() []string {
	var docs []string
	for off := 0; off < 8; off++ {
		pad := strings.Repeat("x", off)
		for _, d := range []string{"<b/>", "&amp;", "&gt;", ">", "]]>", "]", "\r", "\r\n", "\t", "\n", "\x01", "é"} {
			docs = append(docs,
				"<r>"+pad+d+"then a clean run</r>",
				"<r><![CDATA["+pad+d+"then a clean run]]></r>")
		}
	}
	lead := "<r>" + strings.Repeat("y", 32<<10-4)
	return append(docs, lead+"\r</r>", lead+"\r\nz</r>")
}()
