package xmlstream

import (
	"strings"
	"testing"
)

// wordSkipSeeds are FuzzTokenizerDifferential seeds that put the bytes
// charsRun stops at against the edges of the 8-byte words it tests:
// each delimiter, CR, TAB, LF, a lone control byte and bytes >= 0x80 at
// word offsets 0-7 of a text run and of a CDATA section (so "]]>" also
// straddles a word), and a CR as the last byte before the 32 KiB mark
// (the edge of the read window the scanner once refilled), then the
// same with LF following it.
var wordSkipSeeds = func() []string {
	var seeds []string
	for off := 0; off < 8; off++ {
		pad := strings.Repeat("x", off)
		for _, d := range []string{"<b/>", "&amp;", "]]>", "]", ">", "\r", "\r\n", "\t", "\n", "\x01", "\x7f", "é", "\xff"} {
			seeds = append(seeds,
				"<r>"+pad+d+"then a clean run</r>",
				"<r><![CDATA["+pad+d+"then a clean run]]></r>")
		}
	}
	for _, open := range []string{"<r>", "<r><![CDATA["} {
		closer := "</r>"
		if open != "<r>" {
			closer = "]]></r>"
		}
		lead := open + strings.Repeat("y", 32<<10-len(open)-1)
		seeds = append(seeds, lead+"\r"+closer, lead+"\r\nz"+closer)
	}
	return seeds
}()

// TestCharsRunMatchesByteLoop: for every byte value at each of 16
// offsets in a clean run, from each start within a word, charsRun stops
// where the table loop it replaced stops, in text and in CDATA.
func TestCharsRunMatchesByteLoop(t *testing.T) {
	for _, cdata := range []bool{false, true} {
		class := &textClass
		if cdata {
			class = &cdataClass
		}
		for off := 0; off < 16; off++ {
			for c := 0; c < 256; c++ {
				b := []byte(strings.Repeat("a", off) + string(rune(0)) + strings.Repeat("b", 9))
				b[off] = byte(c)
				for start := 0; start < 8 && start <= off; start++ {
					want := start
					for want < len(b) && class[b[want]] == 0 {
						want++
					}
					if got := charsRun(b, start, cdata); got != want {
						t.Fatalf("cdata=%v byte %#x at %d from %d: charsRun = %d, byte loop %d", cdata, c, off, start, got, want)
					}
				}
			}
		}
	}
}

// TestAttrRunMatchesByteLoop: for every byte value at each of 16
// offsets in a clean value, from each start within a word, attrRun
// stops where a byte loop over attrStops stops, under both quote
// characters.
func TestAttrRunMatchesByteLoop(t *testing.T) {
	for _, quote := range []byte{'"', '\''} {
		for off := 0; off < 16; off++ {
			for c := 0; c < 256; c++ {
				b := []byte(strings.Repeat("a", off) + string(rune(0)) + strings.Repeat("b", 9))
				b[off] = byte(c)
				for start := 0; start < 8 && start <= off; start++ {
					want := start
					for want < len(b) && !attrStops(b[want], quote) {
						want++
					}
					if got := attrRun(b, start, quote); got != want {
						t.Fatalf("quote %c byte %#x at %d from %d: attrRun = %d, byte loop %d", quote, c, off, start, got, want)
					}
				}
			}
		}
	}
}

// TestAttrStopsMatchesClass: attrStops is the attribute class with the
// other quote character let through.
func TestAttrStopsMatchesClass(t *testing.T) {
	for _, quote := range []byte{'"', '\''} {
		for c := 0; c < 256; c++ {
			want := attrClass[c] != 0 && !((c == '"' || c == '\'') && byte(c) != quote)
			if got := attrStops(byte(c), quote); got != want {
				t.Fatalf("quote %c byte %#x: attrStops = %v, want %v", quote, c, got, want)
			}
		}
	}
}
