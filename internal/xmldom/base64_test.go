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
	// One seed per branch: a space inside the padding, CR LF between
	// the two '=', tab only, CR only, LF only.
	"QUJDRA= =",
	"QUJDRA=\r\n=",
	"QUJD\tRA==",
	"\t",
	"QUJD\rRA==\r",
	"\r",
	"\n",
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
	// Every place of the eight-symbol and four-symbol runs, and of the
	// tail, meets a bad byte, a pad and a space.
	for i := 0; i < 80; i++ {
		for _, c := range []byte{'*', '=', ' '} {
			b := []byte(long[:80])
			b[i] = c
			checkBase64(t, string(b))
		}
	}
}

func FuzzBase64Text(f *testing.F) {
	for _, s := range base64Seeds {
		f.Add(s)
	}
	f.Fuzz(checkBase64)
}

// checkBase64 asserts DecodeBase64 and the oracle agree on accepting s
// and, when they accept, on the decoded bytes; and that
// AppendDecodeBase64 agrees with DecodeBase64, appending after a prefix
// into a buffer that is too short, exactly large enough, and dirty
// from a previous decode.
func checkBase64(t *testing.T, s string) {
	got, gotErr := DecodeBase64(s)
	want, wantErr := oracleBase64(s)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("DecodeBase64(%q): err %v, oracle err %v", s, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("DecodeBase64(%q) = %x, oracle %x", s, got, want)
	}
	prefix := []byte("pre")
	exact := base64.StdEncoding.DecodedLen(len(s))
	dirty := bytes.Repeat([]byte{'='}, 2*exact+len(prefix))
	for _, dst := range [][]byte{
		append([]byte(nil), prefix...),
		append(make([]byte, 0, len(prefix)+exact), prefix...),
		append(dirty[:0], prefix...),
	} {
		out, err := AppendDecodeBase64(dst, s)
		if (err == nil) != (gotErr == nil) {
			t.Fatalf("AppendDecodeBase64(%q): err %v, DecodeBase64 err %v", s, err, gotErr)
		}
		if err == nil && (!bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], got)) {
			t.Fatalf("AppendDecodeBase64(%q) = %q, want %q then %x", s, out, prefix, got)
		}
	}
}

// TestDecodeBase64AllocationsDirect: text with no space or tab, bare
// or wrapped with CR and LF, decodes straight into the output, its one
// allocation.
func TestDecodeBase64AllocationsDirect(t *testing.T) {
	for _, s := range []string{
		strings.Repeat("QUJD", 200),
		strings.Repeat("QUJD\n", 200),
		strings.Repeat("QUJD\r\n", 200),
	} {
		if allocs := base64Allocs(t, s); allocs != 1 {
			t.Errorf("DecodeBase64(%.12q...) allocated %v times per call, want 1", s, allocs)
		}
	}
}

// TestDecodeBase64AllocationsStripped: text wrapped with spaces or tabs
// decodes in the same one pass, skipping the whitespace, so its one
// allocation is the output too.
func TestDecodeBase64AllocationsStripped(t *testing.T) {
	for _, s := range []string{
		strings.Repeat("QUJD ", 200),
		strings.Repeat("QUJD\t", 200),
		strings.Repeat("\n    QUJD", 200),
	} {
		if allocs := base64Allocs(t, s); allocs != 1 {
			t.Errorf("DecodeBase64(%.12q...) allocated %v times per call, want 1", s, allocs)
		}
	}
}

// TestAppendDecodeBase64Recycled: a buffer with room for the decoded
// bytes decodes without allocating, wrapped or not.
func TestAppendDecodeBase64Recycled(t *testing.T) {
	for _, s := range []string{
		strings.Repeat("QUJD", 200),
		strings.Repeat("QUJD\n", 200),
		strings.Repeat("\n    QUJD", 200),
	} {
		buf := make([]byte, 0, base64.StdEncoding.DecodedLen(len(s)))
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = AppendDecodeBase64(buf[:0], s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendDecodeBase64(%.12q...) into a recycled buffer allocated %v times per call, want 0", s, allocs)
		}
	}
}

func base64Allocs(t *testing.T, s string) float64 {
	t.Helper()
	return testing.AllocsPerRun(100, func() {
		if _, err := DecodeBase64(s); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkDecodeBase64 decodes 4 KiB of base64 text as a serializer
// may write it: one clean run, wrapped with LF every 64 characters, and
// wrapped with an LF and an indent of spaces.
func BenchmarkDecodeBase64(b *testing.B) {
	raw := base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0xde, 0xad, 0xbe, 0xef}, 768))[:4096]
	wrap := func(sep string) string {
		var sb strings.Builder
		for i := 0; i < len(raw); i += 64 {
			sb.WriteString(sep)
			sb.WriteString(raw[i:min(i+64, len(raw))])
		}
		return sb.String()
	}
	for _, c := range []struct{ name, text string }{
		{"clean", raw},
		{"lf-wrapped", wrap("\n")},
		{"space-wrapped", wrap("\n    ")},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(c.text)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeBase64(c.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
