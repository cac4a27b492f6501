package xmldom

import (
	"bytes"
	"encoding/base64"
	"strings"
	"testing"
)

// oracleBase64 is the decoder DecodeBase64 replaced: strip XML
// whitespace into a copy, then decode that with the standard library.
func oracleBase64(s string) ([]byte, error) {
	compact := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
		default:
			compact = append(compact, s[i])
		}
	}
	return base64.StdEncoding.DecodeString(string(compact))
}

var base64Seeds = []string{
	"",
	"QQ==",
	"QUI=",
	"QUJD",
	"QUJDRA==",
	" Q U J D R A = = ",
	"QUJDRA=\n\t=",
	"QUJDRA==\r\n",
	"QUJD\nRA==",
	"QQ=",
	"Q===",
	"=",
	"QUJD=",
	"QUJDQ=",
	"QUJDQQ= ",
	"=QUJD",
	"QUJDR",
	"QUJDRA==QUJD",
	"QUJ*",
	"QR==",
	"QUJDREVGR0hJSktMTU5PUFFSU1RVVldYWVo=",
	"\xff\x00",
	"   ",
}

func TestDecodeBase64MatchesOracle(t *testing.T) {
	long := base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef, 0x42}, 100))
	var wrapped strings.Builder
	for i := 0; i < len(long); i += 64 {
		wrapped.WriteString("\n    ")
		wrapped.WriteString(long[i:min(i+64, len(long))])
	}
	wrapped.WriteString("\n")
	for _, s := range append(base64Seeds, long, wrapped.String()) {
		checkBase64(t, s)
	}
}

func FuzzBase64Text(f *testing.F) {
	for _, s := range base64Seeds {
		f.Add(s)
	}
	f.Fuzz(checkBase64)
}

// checkBase64 asserts DecodeBase64 and the oracle agree on accepting s
// and, when they accept, on the decoded bytes.
func checkBase64(t *testing.T, s string) {
	got, gotErr := DecodeBase64(s)
	want, wantErr := oracleBase64(s)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("DecodeBase64(%q): err %v, oracle err %v", s, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("DecodeBase64(%q) = %x, oracle %x", s, got, want)
	}
}

// TestDecodeBase64Allocations: the whitespace-free copy and the output,
// and no string round trip between them.
func TestDecodeBase64Allocations(t *testing.T) {
	s := strings.Repeat("QUJD\n", 200)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeBase64(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 2 {
		t.Errorf("DecodeBase64 allocated %v times per call, want 2", allocs)
	}
}
