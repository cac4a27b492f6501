// Command disccrypt encrypts and decrypts disc content: XML element
// regions inside cluster/manifest documents (paper Fig. 8) and whole
// binary payloads such as transport streams (paper Fig. 7).
//
// Usage:
//
//	disccrypt encrypt -in doc.xml -out enc.xml -key <hex> [-path "//manifest/code"] [-content] [-alg aes256-gcm]
//	disccrypt decrypt -in enc.xml -out dec.xml -key <hex>
//	disccrypt encrypt-bin -in clip.m2ts -out clip.enc.xml -key <hex> [-mime video/mp2t]
//	disccrypt decrypt-bin -in clip.enc.xml -out clip.m2ts -key <hex>
//
// decrypt-bin reads the whole EncryptedData document and decrypts its
// payload in memory (about 2.75 times the input file at peak), then
// writes the plaintext; a payload that fails its padding or tag check
// writes no output file. Only GCM's tag detects a wrong key or a
// changed payload: AES-CBC carries no integrity, and a wrong key
// passes its padding check about one time in sixteen, so under CBC a
// successful decrypt-bin can write garbage. It says so on standard
// error; verify the payload's signature (paper Fig. 7) before using a
// CBC plaintext.
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"

	"discsec/internal/xmldom"
	"discsec/internal/xmlenc"
	"discsec/internal/xmlsecuri"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "encrypt":
		err = cmdEncrypt(os.Args[2:])
	case "decrypt":
		err = cmdDecrypt(os.Args[2:])
	case "encrypt-bin":
		err = cmdEncryptBin(os.Args[2:])
	case "decrypt-bin":
		err = cmdDecryptBin(os.Args[2:])
	case "genkey":
		err = cmdGenKey(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "disccrypt:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: disccrypt encrypt|decrypt|encrypt-bin|decrypt-bin|genkey [flags]")
	fmt.Fprintln(os.Stderr, "  decrypt-bin checks integrity under GCM only; verify a CBC payload's signature")
	os.Exit(2)
}

func algByName(s string) (string, error) {
	switch s {
	case "aes128-cbc":
		return xmlsecuri.EncAES128CBC, nil
	case "aes192-cbc":
		return xmlsecuri.EncAES192CBC, nil
	case "aes256-cbc":
		return xmlsecuri.EncAES256CBC, nil
	case "aes128-gcm":
		return xmlsecuri.EncAES128GCM, nil
	case "aes256-gcm", "":
		return xmlsecuri.EncAES256GCM, nil
	default:
		return "", fmt.Errorf("unknown algorithm %q", s)
	}
}

func keyFlag(s string) ([]byte, error) {
	if s == "" {
		return nil, fmt.Errorf("a -key (hex) is required")
	}
	k, err := hex.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("-key: %w", err)
	}
	return k, nil
}

func cmdGenKey(args []string) error {
	fs := flag.NewFlagSet("genkey", flag.ExitOnError)
	algName := fs.String("alg", "aes256-gcm", "algorithm the key is for")
	fs.Parse(args)
	alg, err := algByName(*algName)
	if err != nil {
		return err
	}
	k, err := xmlenc.GenerateKey(alg)
	if err != nil {
		return err
	}
	fmt.Println(hex.EncodeToString(k))
	return nil
}

func cmdEncrypt(args []string) error {
	fs := flag.NewFlagSet("encrypt", flag.ExitOnError)
	in := fs.String("in", "", "input XML document")
	out := fs.String("out", "", "output document (default: overwrite input)")
	keyHex := fs.String("key", "", "content key, hex")
	path := fs.String("path", "", "element query path to encrypt (default: document root content)")
	content := fs.Bool("content", false, "encrypt element content only, leaving the tag clear")
	algName := fs.String("alg", "aes256-gcm", "block algorithm")
	dataID := fs.String("id", "", "Id attribute for the EncryptedData")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("encrypt requires -in")
	}
	if *out == "" {
		*out = *in
	}
	key, err := keyFlag(*keyHex)
	if err != nil {
		return err
	}
	alg, err := algByName(*algName)
	if err != nil {
		return err
	}

	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	doc, err := xmldom.ParseBytes(raw)
	if err != nil {
		return err
	}
	target := doc.Root()
	if *path != "" {
		target, err = doc.Root().Find(*path)
		if err != nil {
			return err
		}
		if target == nil {
			return fmt.Errorf("path %q matched nothing", *path)
		}
	}
	opts := xmlenc.EncryptOptions{Algorithm: alg, Key: key, DataID: *dataID}
	if *content || target == doc.Root() {
		// Roots have no parent; content encryption keeps the document
		// element and is what you want for whole-document protection.
		if _, err := xmlenc.EncryptContent(target, opts); err != nil {
			return err
		}
	} else if _, err := xmlenc.EncryptElement(target, opts); err != nil {
		return err
	}
	if err := os.WriteFile(*out, doc.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("encrypted %s -> %s (%s)\n", *in, *out, alg)
	return nil
}

func cmdDecrypt(args []string) error {
	fs := flag.NewFlagSet("decrypt", flag.ExitOnError)
	in := fs.String("in", "", "input XML document")
	out := fs.String("out", "", "output document (default: overwrite input)")
	keyHex := fs.String("key", "", "content key, hex")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("decrypt requires -in")
	}
	if *out == "" {
		*out = *in
	}
	key, err := keyFlag(*keyHex)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	doc, err := xmldom.ParseBytes(raw)
	if err != nil {
		return err
	}
	n, err := xmlenc.DecryptAll(doc, xmlenc.DecryptOptions{Key: key})
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, doc.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("decrypted %d region(s): %s -> %s\n", n, *in, *out)
	return nil
}

func cmdEncryptBin(args []string) error {
	fs := flag.NewFlagSet("encrypt-bin", flag.ExitOnError)
	in := fs.String("in", "", "input binary file")
	out := fs.String("out", "", "output EncryptedData document")
	keyHex := fs.String("key", "", "content key, hex")
	algName := fs.String("alg", "aes256-gcm", "block algorithm")
	mime := fs.String("mime", "application/octet-stream", "MimeType annotation")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("encrypt-bin requires -in and -out")
	}
	key, err := keyFlag(*keyHex)
	if err != nil {
		return err
	}
	alg, err := algByName(*algName)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	doc, err := xmlenc.EncryptOctets(raw, xmlenc.EncryptOptions{Algorithm: alg, Key: key, MimeType: *mime})
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, doc.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("encrypted %d bytes: %s -> %s\n", len(raw), *in, *out)
	return nil
}

func cmdDecryptBin(args []string) error {
	fs := flag.NewFlagSet("decrypt-bin", flag.ExitOnError)
	in := fs.String("in", "", "input EncryptedData document")
	out := fs.String("out", "", "output binary file")
	keyHex := fs.String("key", "", "content key, hex")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("decrypt-bin requires -in and -out")
	}
	key, err := keyFlag(*keyHex)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(*in)
	if err != nil {
		return err
	}
	doc, err := xmldom.ParseBytes(raw)
	if err != nil {
		return err
	}
	// The plaintext is written only once it is whole and its padding
	// or tag has checked out: a failed decryption leaves no file.
	pt, err := xmlenc.DecryptOctets(doc.Root(), xmlenc.DecryptOptions{Key: key})
	if err != nil {
		return err
	}
	if isCBC(doc.Root()) {
		fmt.Fprintln(os.Stderr, "disccrypt: note: AES-CBC carries no integrity, so a wrong key or a changed payload can decrypt to garbage; verify the payload's signature (paper Fig. 7)")
	}
	if err := os.WriteFile(*out, pt, 0o644); err != nil {
		return err
	}
	fmt.Printf("decrypted %d bytes: %s -> %s\n", len(pt), *in, *out)
	return nil
}

// isCBC reports whether the EncryptedData ed names an AES-CBC
// algorithm.
func isCBC(ed *xmldom.Element) bool {
	em := ed.FirstChildNamed(xmlsecuri.EncNamespace, "EncryptionMethod")
	if em == nil {
		return false
	}
	switch em.AttrValue("Algorithm") {
	case xmlsecuri.EncAES128CBC, xmlsecuri.EncAES192CBC, xmlsecuri.EncAES256CBC:
		return true
	}
	return false
}
