package discsec

// End-to-end test of the command-line tools: builds the binaries and
// drives the full authoring → serving → playing chain through their
// real CLIs. Skipped under -short.

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"discsec/internal/server"
)

func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir, "./cmd/...")
	cmd.Dir = mustGetwd(t)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	return dir
}

func mustGetwd(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func runTool(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func runToolExpectFailure(t *testing.T, dir, name string, args ...string) string {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%s %v succeeded, expected failure\n%s", name, args, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI end-to-end test builds binaries; skipped with -short")
	}
	bin := buildTools(t)

	// PKI bootstrap.
	out := runTool(t, bin, "discsign", "keygen", "-dir", "studio", "-name", "CLI Test Studio")
	if !strings.Contains(out, "issued identity") {
		t.Fatalf("keygen output: %s", out)
	}
	roots := filepath.Join(bin, "root", "root.pem")

	// Author a demo disc.
	runTool(t, bin, "discauthor", "demo", "-out", "demo.img", "-keys", "studio")
	out = runTool(t, bin, "discauthor", "inspect", "-image", "demo.img")
	if !strings.Contains(out, "1 signature(s)") {
		t.Fatalf("inspect output: %s", out)
	}

	// Serve it and fetch it back via the downloader CLI.
	cs := server.NewContentServer()
	img, err := os.ReadFile(filepath.Join(bin, "demo.img"))
	if err != nil {
		t.Fatal(err)
	}
	cs.PublishResource("discs/demo.img", img, "application/octet-stream")
	base, shutdown, err := cs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	runTool(t, bin, "discplayer", "fetch", "-url", base, "-name", "discs/demo.img", "-out", "fetched.img")

	// Play the fetched disc.
	out = runTool(t, bin, "discplayer", "run", "-image", "fetched.img", "-roots", roots)
	if !strings.Contains(out, "verified=true") {
		t.Fatalf("run output: %s", out)
	}
	if !strings.Contains(out, "granted permissions") {
		t.Fatalf("run output missing permissions: %s", out)
	}

	// Tamper with the image index: the player must bar it. Corrupting
	// the container itself is caught by the container digest; go
	// deeper by rebuilding a valid container with a modified index via
	// disccrypt on a signed doc — simpler: flip a byte and expect the
	// container check to fire.
	raw, err := os.ReadFile(filepath.Join(bin, "fetched.img"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(filepath.Join(bin, "tampered.img"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	out = runToolExpectFailure(t, bin, "discplayer", "run", "-image", "tampered.img", "-roots", roots)
	if !strings.Contains(out, "corrupt") && !strings.Contains(out, "FAILED") {
		t.Fatalf("tampered run output: %s", out)
	}

	// Sign/verify a document via discsign, encrypt/decrypt via
	// disccrypt, verify again.
	clusterXML := `<cluster xmlns="urn:discsec:cluster" title="CLI"><track Id="t" kind="application"><manifest Id="m1"><markup/><code><script language="ecmascript">var v = 7;</script></code></manifest></track></cluster>`
	if err := os.WriteFile(filepath.Join(bin, "c.xml"), []byte(clusterXML), 0o644); err != nil {
		t.Fatal(err)
	}
	runTool(t, bin, "discsign", "sign", "-in", "c.xml", "-out", "signed.xml", "-keys", "studio", "-level", "manifest", "-id", "m1")
	runTool(t, bin, "discsign", "verify", "-in", "signed.xml", "-roots", roots)

	key := strings.TrimSpace(runTool(t, bin, "disccrypt", "genkey", "-alg", "aes256-gcm"))
	runTool(t, bin, "disccrypt", "encrypt", "-in", "signed.xml", "-out", "enc.xml", "-key", key, "-path", "//manifest/code")
	encBytes, err := os.ReadFile(filepath.Join(bin, "enc.xml"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(encBytes), "var v = 7;") {
		t.Fatal("plaintext leaked after disccrypt encrypt")
	}
	runTool(t, bin, "disccrypt", "decrypt", "-in", "enc.xml", "-out", "dec.xml", "-key", key)
	runTool(t, bin, "discsign", "verify", "-in", "dec.xml", "-roots", roots)

	// Wrong key fails.
	runToolExpectFailure(t, bin, "disccrypt", "decrypt", "-in", "enc.xml", "-out", "dec2.xml", "-key", strings.Repeat("00", 32))

	// Binary payloads (Fig. 7): encrypt-bin then decrypt-bin returns the
	// input byte for byte under CBC and GCM. Under GCM a wrong key fails
	// the tag check, so decrypt-bin fails and writes no output file (a
	// wrong CBC key passes the padding check one time in sixteen, so
	// decrypt-bin notes, under CBC only, that the payload's signature is
	// its integrity check).
	clip := make([]byte, 5000)
	for i := range clip {
		clip[i] = byte(i*131 + i>>8)
	}
	if err := os.WriteFile(filepath.Join(bin, "clip.m2ts"), clip, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"aes128-cbc", "aes256-gcm"} {
		binKey := strings.TrimSpace(runTool(t, bin, "disccrypt", "genkey", "-alg", alg))
		runTool(t, bin, "disccrypt", "encrypt-bin", "-in", "clip.m2ts", "-out", alg+".enc.xml", "-key", binKey, "-alg", alg, "-mime", "video/mp2t")
		out = runTool(t, bin, "disccrypt", "decrypt-bin", "-in", alg+".enc.xml", "-out", alg+".m2ts", "-key", binKey)
		if noted := strings.Contains(out, "AES-CBC carries no integrity"); noted != (alg == "aes128-cbc") {
			t.Fatalf("%s: decrypt-bin's CBC integrity note printed %v:\n%s", alg, noted, out)
		}
		if got, err := os.ReadFile(filepath.Join(bin, alg+".m2ts")); err != nil || !bytes.Equal(got, clip) {
			t.Fatalf("%s: decrypt-bin output differs from the encrypt-bin input (err %v)", alg, err)
		}
	}
	runToolExpectFailure(t, bin, "disccrypt", "decrypt-bin", "-in", "aes256-gcm.enc.xml", "-out", "wrongkey.m2ts", "-key", strings.Repeat("00", 32))
	if _, err := os.Stat(filepath.Join(bin, "wrongkey.m2ts")); !os.IsNotExist(err) {
		t.Fatalf("decrypt-bin under a wrong key left an output file (stat err %v)", err)
	}

	// Rights license over the CLI: grant two plays to one device, play
	// with persistent storage, third play and a stranger refused.
	runTool(t, bin, "discauthor", "license", "-keys", "studio", "-image", "demo.img",
		"-grant", "device-1:play:t-av-1:2")
	playArgs := []string{"play", "-image", "demo.img", "-roots", roots, "-device", "device-1", "-storage", "pstore"}
	out = runTool(t, bin, "discplayer", playArgs...)
	if !strings.Contains(out, "clip signature verified") {
		t.Fatalf("play output: %s", out)
	}
	runTool(t, bin, "discplayer", playArgs...)
	out = runToolExpectFailure(t, bin, "discplayer", playArgs...)
	if !strings.Contains(out, "exhausted") {
		t.Fatalf("third play output: %s", out)
	}
	out = runToolExpectFailure(t, bin, "discplayer",
		"play", "-image", "demo.img", "-roots", roots, "-device", "stranger", "-storage", "pstore")
	if !strings.Contains(out, "no applicable grant") {
		t.Fatalf("stranger play output: %s", out)
	}

	// discbench smoke run (quick mode, one table).
	out = runTool(t, bin, "discbench", "-quick", "-table", "e1")
	if !strings.Contains(out, "ratio") {
		t.Fatalf("discbench output: %s", out)
	}
}
