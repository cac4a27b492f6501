package xmlenc

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"strings"

	"discsec/internal/obs"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// DecryptOctetsTo is the streaming form of DecryptOctets: the recovered
// plaintext is written to dst as ciphertext chunks are decrypted,
// instead of being materialized whole. For CBC payloads the resident
// set is one chunk (32 KiB) no matter how large the clip is; GCM
// payloads are necessarily buffered (see decryptGCMTo). Ciphertext
// arrives either from the inline CipherValue (base64-decoded
// incrementally) or, for CipherReference, through
// DecryptOptions.CipherStreamResolver when configured — the path that
// lets a multi-gigabyte A/V track flow disc-to-destination without
// ever being held in memory.
//
// It returns the number of plaintext bytes written. On error the
// bytes already written to dst are garbage (an unauthenticated-mode
// prefix, or a truncated stream): callers streaming to a destination
// they cannot discard must treat any error as poisoning the output.
func DecryptOctetsTo(dst io.Writer, ed *xmldom.Element, opts DecryptOptions) (int64, error) {
	defer opts.Recorder.Start(obs.StageDecrypt).End()
	if !IsEncryptedData(ed) {
		return 0, errors.New("xmlenc: element is not xenc:EncryptedData")
	}
	em := ed.FirstChildNamed(xmlsecuri.EncNamespace, "EncryptionMethod")
	if em == nil {
		return 0, errors.New("xmlenc: EncryptedData missing EncryptionMethod")
	}
	algorithm := em.AttrValue("Algorithm")
	key, err := resolveContentKey(ed, algorithm, opts)
	if err != nil {
		return 0, err
	}
	if err := checkKeyLen(algorithm, key); err != nil {
		return 0, err
	}
	src, err := cipherPayloadStream(ed, opts)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	switch algorithm {
	case xmlsecuri.EncAES128CBC, xmlsecuri.EncAES192CBC, xmlsecuri.EncAES256CBC:
		return decryptCBCTo(dst, key, src)
	case xmlsecuri.EncAES128GCM, xmlsecuri.EncAES256GCM:
		return decryptGCMTo(dst, key, src)
	default:
		return 0, fmt.Errorf("%w: block encryption %q", ErrUnsupportedAlgorithm, algorithm)
	}
}

// cipherPayloadStream opens the EncryptedData's ciphertext as a stream:
// an incremental base64 decoder over the inline CipherValue, or the
// external reference through CipherStreamResolver (falling back to the
// byte-slice CipherResolver when only that is configured).
func cipherPayloadStream(ed *xmldom.Element, opts DecryptOptions) (io.ReadCloser, error) {
	cd := ed.FirstChildNamed(xmlsecuri.EncNamespace, "CipherData")
	if cd == nil {
		return nil, errors.New("xmlenc: EncryptedData missing CipherData")
	}
	if cv := cd.FirstChildNamed(xmlsecuri.EncNamespace, "CipherValue"); cv != nil {
		return io.NopCloser(base64.NewDecoder(base64.StdEncoding,
			stripWS{strings.NewReader(cv.Text())})), nil
	}
	if cr := cd.FirstChildNamed(xmlsecuri.EncNamespace, "CipherReference"); cr != nil {
		uri, ok := cr.Attr("URI")
		if !ok {
			return nil, errors.New("xmlenc: CipherReference missing URI")
		}
		if opts.CipherStreamResolver != nil {
			rc, err := opts.CipherStreamResolver(uri)
			if err != nil {
				return nil, fmt.Errorf("xmlenc: CipherReference %q: %w", uri, err)
			}
			return rc, nil
		}
		if opts.CipherResolver != nil {
			payload, err := opts.CipherResolver(uri)
			if err != nil {
				return nil, fmt.Errorf("xmlenc: CipherReference %q: %w", uri, err)
			}
			return io.NopCloser(bytes.NewReader(payload)), nil
		}
		return nil, fmt.Errorf("xmlenc: no resolver configured for CipherReference %q", uri)
	}
	return nil, errors.New("xmlenc: CipherData has neither CipherValue nor CipherReference")
}

// stripWS drops XML-permitted whitespace from a base64 text stream so
// the decoder sees a contiguous alphabet.
type stripWS struct{ r io.Reader }

func (f stripWS) Read(p []byte) (int, error) {
	for {
		n, err := f.r.Read(p)
		k := 0
		for i := 0; i < n; i++ {
			switch p[i] {
			case ' ', '\t', '\n', '\r':
			default:
				p[k] = p[i]
				k++
			}
		}
		if k > 0 || err != nil {
			return k, err
		}
		// The whole read was whitespace: go around again rather than
		// return a zero-byte success.
	}
}

// decryptCBCChunk is the streaming granule: 2048 AES blocks (32 KiB),
// the resident ciphertext bound regardless of payload size.
const decryptCBCChunk = 2048 * 16

// decryptCBCTo streams the XML-Enc CBC construction (IV || ciphertext,
// final byte of the last plaintext block carries the pad length)
// block-wise: each chunk is decrypted and released immediately, except
// the most recent block, which is held back until the next read proves
// it is not the final (padded) one. CBC carries no integrity of its
// own — in this system the payload is always covered by a signature
// reference, verified before or after this call per the Fig. 9 order.
func decryptCBCTo(dst io.Writer, key []byte, src io.Reader) (int64, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return 0, err
	}
	bs := block.BlockSize()
	iv := make([]byte, bs)
	if _, err := io.ReadFull(src, iv); err != nil {
		return 0, fmt.Errorf("%w: CBC payload shorter than one IV", ErrDecryptionFailed)
	}
	dec := cipher.NewCBCDecrypter(block, iv)

	buf := make([]byte, decryptCBCChunk)
	hold := make([]byte, 0, bs) // decrypted candidate final block
	var written int64
	for {
		n, rerr := io.ReadFull(src, buf)
		if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
			return written, fmt.Errorf("xmlenc: reading ciphertext: %w", rerr)
		}
		if n > 0 {
			if n%bs != 0 {
				return written, fmt.Errorf("%w: CBC ciphertext length not a block multiple", ErrDecryptionFailed)
			}
			dec.CryptBlocks(buf[:n], buf[:n])
			if len(hold) > 0 {
				w, werr := dst.Write(hold)
				written += int64(w)
				if werr != nil {
					return written, werr
				}
			}
			w, werr := dst.Write(buf[:n-bs])
			written += int64(w)
			if werr != nil {
				return written, werr
			}
			hold = append(hold[:0], buf[n-bs:n]...)
		}
		if rerr != nil { // EOF or ErrUnexpectedEOF: stream drained
			break
		}
	}
	if len(hold) == 0 {
		return written, fmt.Errorf("%w: CBC payload has no ciphertext blocks", ErrDecryptionFailed)
	}
	padLen := int(hold[bs-1])
	if padLen < 1 || padLen > bs {
		return written, fmt.Errorf("%w: invalid CBC padding", ErrDecryptionFailed)
	}
	w, werr := dst.Write(hold[:bs-padLen])
	written += int64(w)
	return written, werr
}

// decryptGCMTo buffers the whole payload before writing any plaintext:
// GCM's authentication tag trails the ciphertext, and releasing
// unauthenticated plaintext to dst would defeat the mode's point. The
// streaming win for GCM is therefore only on the input side (the
// ciphertext source need not be memory-resident twice); payloads too
// large to buffer should be packaged under CBC, where the enclosing
// signature reference provides integrity.
func decryptGCMTo(dst io.Writer, key []byte, src io.Reader) (int64, error) {
	payload, err := io.ReadAll(src)
	if err != nil {
		return 0, fmt.Errorf("xmlenc: reading ciphertext: %w", err)
	}
	pt, err := decryptGCM(key, payload, true) // ReadAll's buffer is ours
	if err != nil {
		return 0, err
	}
	n, err := dst.Write(pt)
	return int64(n), err
}
