package c14n

import (
	"bytes"
	"strings"
	"testing"

	"discsec/internal/xmldom"
)

// FuzzCanonicalize checks, for any parseable input, that
// canonicalization never panics, is idempotent, and agrees byte for byte
// with the reference tree walker in every mode ByURI names plus an
// exclusive PrefixList — for the whole document and for every element
// as a subset apex, with and without its first child element excluded.
func FuzzCanonicalize(f *testing.F) {
	seeds := []string{
		`<r/>`,
		`<a xmlns="urn:d" xmlns:p="urn:p" p:k="v"><b xmlns=""><p:c/></b></a>`,
		`<a xml:lang="en"><b xml:space="preserve"> <c/> </b></a>`,
		`<r at="a&#x9;b&#xA;c&#xD;">t&#xD;</r>`,
		`<a xmlns:x="urn:1"><b xmlns:x="urn:1"><x:c/></b></a>`,
		// Entity-like text: predefined references, a numeric reference,
		// and text that merely looks like an entity once decoded.
		`<r a="&amp;notanentity;">&lt;evil&gt; &#38;amp; &amp;#x26;</r>`,
		// Doctype declarations must stay rejected (XXE surface).
		`<!DOCTYPE r [<!ENTITY x "y">]><r>&x;</r>`,
	}
	// Deep nesting probes the depth limit and namespace-scope stack.
	seeds = append(seeds,
		strings.Repeat(`<e xmlns:p="urn:p">`, 48)+`<p:leaf/>`+strings.Repeat(`</e>`, 48))
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := xmldom.ParseBytes(data)
		if err != nil {
			return
		}
		apexes := append([]*xmldom.Element{doc.Root()}, doc.Root().Descendants()...)
		for _, opts := range fuzzModes {
			c1, err := CanonicalizeDocument(doc, opts)
			if err != nil {
				t.Fatalf("canonicalize (opts %+v): %v", opts, err)
			}
			want, err := oracleCanonicalizeDocument(doc, opts)
			if err != nil {
				t.Fatalf("oracle (opts %+v): %v", opts, err)
			}
			if !bytes.Equal(c1, want) {
				t.Fatalf("core and oracle diverged (opts %+v):\ncore:   %q\noracle: %q", opts, c1, want)
			}
			// Idempotence.
			doc2, err := xmldom.ParseBytes(c1)
			if err != nil {
				t.Fatalf("canonical form does not parse: %v\n%q", err, c1)
			}
			c2, err := CanonicalizeDocument(doc2, opts)
			if err != nil {
				t.Fatalf("re-canonicalize: %v", err)
			}
			if !bytes.Equal(c1, c2) {
				t.Fatalf("not idempotent (opts %+v):\n1: %q\n2: %q", opts, c1, c2)
			}
			for _, apex := range apexes {
				checkAgainstOracle(t, apex, nil, opts)
				if first := apex.FirstChildElement(""); first != nil {
					checkAgainstOracle(t, apex, first, opts)
				}
			}
		}
	})
}

// fuzzModes are the four ByURI algorithms plus an exclusive PrefixList.
var fuzzModes = []Options{
	{},
	{WithComments: true},
	{Exclusive: true},
	{Exclusive: true, WithComments: true},
	{Exclusive: true, InclusivePrefixes: []string{"p", "x", "#default"}},
}
