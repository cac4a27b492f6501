package xmlenc

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"strings"
	"testing"

	"discsec/internal/xmlsecuri"
)

// encryptedManifest returns gameManifest with its highscores element
// encrypted under k, carrying n copies of marker as its text.
func encryptedManifest(t *testing.T, k []byte, marker string, n int) string {
	t.Helper()
	doc := parseDoc(t, gameManifest)
	target, _ := doc.Root().Find("state/highscores")
	target.SetText(strings.Repeat(marker, n))
	if _, err := EncryptElement(target, EncryptOptions{Algorithm: xmlsecuri.EncAES128CBC, Key: k}); err != nil {
		t.Fatal(err)
	}
	return doc.Root().String()
}

// pooledPayloads takes up to eight buffers from payloadPool and puts
// them back afterwards.
func pooledPayloads(t *testing.T) []*[]byte {
	t.Helper()
	var got []*[]byte
	for i := 0; i < 8; i++ {
		got = append(got, payloadPool.Get().(*[]byte))
	}
	t.Cleanup(func() {
		for _, b := range got {
			payloadPool.Put(b)
		}
	})
	return got
}

// TestDecryptElementScrubsPooledBuffer: the pooled buffer a CipherValue
// was decrypted in holds no plaintext once DecryptElement returns, and
// the decrypted text, parsed into the owner's arena, is intact.
func TestDecryptElementScrubsPooledBuffer(t *testing.T) {
	const marker = "plaintext-marker;"
	k := key(16)
	doc := parseDoc(t, encryptedManifest(t, k, marker, 40))
	if _, err := DecryptAll(doc, DecryptOptions{Key: k}); err != nil {
		t.Fatal(err)
	}
	restored, _ := doc.Root().Find("state/highscores")
	if restored == nil || restored.Text() != strings.Repeat(marker, 40) {
		t.Fatalf("decrypted element = %v", restored)
	}
	for _, b := range pooledPayloads(t) {
		if bytes.Contains((*b)[:cap(*b)], []byte(marker)) {
			t.Fatal("a pooled decode buffer still holds plaintext")
		}
	}
}

// TestHugePayloadNotPooled: a decode buffer one huge CipherValue grew
// past maxPooledPayload is dropped, so the pool never pins it.
func TestHugePayloadNotPooled(t *testing.T) {
	k := key(16)
	doc := parseDoc(t, encryptedManifest(t, k, "0123456789abcdef", maxPooledPayload/16))
	if _, err := DecryptAll(doc, DecryptOptions{Key: k}); err != nil {
		t.Fatal(err)
	}
	for _, b := range pooledPayloads(t) {
		if cap(*b) > maxPooledPayload {
			t.Fatalf("the pool handed out a %d-byte buffer, past the %d-byte cap", cap(*b), maxPooledPayload)
		}
	}
}

// TestExpandKeySharesSchedule: options expanded once hand every
// decryption under Key the same cipher.Block; another key, a Key
// changed after the expansion, or one of no AES size is not served
// from it, and decryption under expanded options matches decryption
// without.
func TestExpandKeySharesSchedule(t *testing.T) {
	k := key(16)
	opts := DecryptOptions{Key: append([]byte(nil), k...)}.ExpandKey()
	if opts.sched == nil {
		t.Fatal("ExpandKey kept no schedule for an AES-128 key")
	}
	if b, err := opts.sched.blockFor(k); err != nil || b != opts.sched.block {
		t.Fatalf("blockFor(Key) = %v, %v; want the expanded block", b, err)
	}
	if b, err := opts.sched.blockFor(key(32)); err != nil || b == opts.sched.block {
		t.Fatalf("blockFor(another key) = %v, %v; want a fresh block", b, err)
	}
	opts.Key[0] ^= 1
	if b, _ := opts.sched.blockFor(opts.Key); b == opts.sched.block {
		t.Fatal("a Key changed after ExpandKey was served from the old schedule")
	}
	if (DecryptOptions{Key: key(7)}).ExpandKey().sched != nil || (DecryptOptions{}).ExpandKey().sched != nil {
		t.Fatal("ExpandKey kept a schedule for a key of no AES size")
	}

	src := encryptedManifest(t, k, "score;", 10)
	var want string
	for i, o := range []DecryptOptions{{Key: k}, DecryptOptions{Key: k}.ExpandKey()} {
		doc := parseDoc(t, src)
		if _, err := DecryptAll(doc, o); err != nil {
			t.Fatal(err)
		}
		got := doc.Root().String()
		if i == 0 {
			want = got
		} else if got != want {
			t.Fatalf("expanded options decrypted %q, plain ones %q", got, want)
		}
	}
}

// TestCBCDecryptMatchesStdlib: cbcDecrypt, in place over the block
// cipher, equals cipher.NewCBCDecrypter at every length from one to 40
// blocks.
func TestCBCDecryptMatchesStdlib(t *testing.T) {
	block, err := aes.NewCipher(key(16))
	if err != nil {
		t.Fatal(err)
	}
	iv := bytes.Repeat([]byte{0x5a}, aes.BlockSize)
	for blocks := 1; blocks <= 40; blocks++ {
		ct := make([]byte, blocks*aes.BlockSize)
		for i := range ct {
			ct[i] = byte(i*31 + blocks)
		}
		want := make([]byte, len(ct))
		cipher.NewCBCDecrypter(block, iv).CryptBlocks(want, ct)
		cbcDecrypt(block, iv, ct)
		if !bytes.Equal(ct, want) {
			t.Fatalf("%d blocks: cbcDecrypt differs from the standard library", blocks)
		}
	}
}
