// Package c14n implements Canonical XML 1.0 (inclusive, with and without
// comments) and Exclusive XML Canonicalization 1.0, as required by the
// XML Signature core processing rules.
//
// Canonicalization removes the syntactic variation the paper's §5.4 warns
// about — attribute order, redundant namespace declarations, entity
// references, empty-element shorthand — so that semantically equivalent
// markup digests identically.
//
// There is one implementation, the Stream in stream.go. The DOM entry
// points in this file walk the tree and feed it the same events the
// tokenizer would.
package c14n

import (
	"bytes"
	"fmt"
	"slices"

	"discsec/internal/obs"
	"discsec/internal/xmldom"
	"discsec/internal/xmlsecuri"
)

// Options selects a canonicalization algorithm.
type Options struct {
	// WithComments retains comment nodes in the canonical form.
	WithComments bool
	// Exclusive selects Exclusive XML Canonicalization 1.0; the default
	// is inclusive Canonical XML 1.0.
	Exclusive bool
	// InclusivePrefixes is the exclusive-canonicalization
	// InclusiveNamespaces PrefixList: prefixes treated inclusively. The
	// token "#default" denotes the default namespace.
	InclusivePrefixes []string
	// Recorder, when non-nil, receives one obs.StageC14N span per
	// canonicalization. It is ignored by URI()/ByURI equivalence.
	Recorder *obs.Recorder
}

// ByURI maps a canonicalization method identifier to Options.
func ByURI(uri string) (Options, error) {
	switch uri {
	case xmlsecuri.C14N10:
		return Options{}, nil
	case xmlsecuri.C14N10WithComments:
		return Options{WithComments: true}, nil
	case xmlsecuri.ExcC14N:
		return Options{Exclusive: true}, nil
	case xmlsecuri.ExcC14NWithComments:
		return Options{Exclusive: true, WithComments: true}, nil
	default:
		return Options{}, fmt.Errorf("c14n: unsupported canonicalization method %q", uri)
	}
}

// URI returns the algorithm identifier for the options.
func (o Options) URI() string {
	switch {
	case o.Exclusive && o.WithComments:
		return xmlsecuri.ExcC14NWithComments
	case o.Exclusive:
		return xmlsecuri.ExcC14N
	case o.WithComments:
		return xmlsecuri.C14N10WithComments
	default:
		return xmlsecuri.C14N10
	}
}

// Canonicalize renders the subtree rooted at e in canonical form. The
// element is treated as the apex of a document subset: for inclusive
// canonicalization its in-scope namespaces and inherited xml:* attributes
// are imported per C14N 1.0; for exclusive canonicalization only visibly
// utilized namespaces are emitted.
func Canonicalize(e *xmldom.Element, opts Options) ([]byte, error) {
	return CanonicalizeExcept(e, nil, opts)
}

// CanonicalizeExcept is Canonicalize with the subtree rooted at excluded
// left out of the node-set: the enveloped-signature transform, which
// removes the Signature element being validated. A nil excluded, or one
// outside the subtree, leaves nothing out.
func CanonicalizeExcept(e, excluded *xmldom.Element, opts Options) ([]byte, error) {
	var out bytes.Buffer
	s := newStream(&out, opts)
	s.seed(e)
	s.walk(e, excluded)
	if err := s.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// CanonicalizeDocument renders a whole document in canonical form,
// including top-level processing instructions and (optionally) comments
// with the newline placement the recommendation specifies.
func CanonicalizeDocument(d *xmldom.Document, opts Options) ([]byte, error) {
	if d.Root() == nil {
		return nil, fmt.Errorf("c14n: document has no root element")
	}
	var out bytes.Buffer
	s := newStream(&out, opts)
	for _, n := range d.Children {
		s.walk(n, nil)
	}
	if err := s.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// seed loads the context a document-subset apex inherits from its
// ancestors: their namespace declarations and, for inclusive
// canonicalization, the nearest xml:lang, xml:space and xml:base, which
// C14N 1.0 imports onto the apex.
func (s *Stream) seed(apex *xmldom.Element) {
	for anc := apex.ParentElement(); anc != nil; anc = anc.ParentElement() {
		for _, a := range anc.Attrs {
			switch {
			case a.IsNamespaceDecl():
				s.scope = append(s.scope, nsBinding{prefix: a.DeclaredPrefix(), uri: a.Value})
			case !s.opts.Exclusive && a.Prefix == "xml" &&
				(a.Local == "lang" || a.Local == "space" || a.Local == "base") &&
				!hasXMLAttr(s.inherited, a.Local):
				s.inherited = append(s.inherited, a)
			}
		}
	}
	// Gathered nearest first; lookups take the last entry, so the
	// nearest declaration must come last.
	slices.Reverse(s.scope)
}

// walk feeds the subtree at n to the Stream as handler events, skipping
// the excluded element. Errors stay in s.err and surface from Close.
//
//discvet:hotpath DOM canonicalization of every SignedInfo and reference digest; events go straight to the core
func (s *Stream) walk(n xmldom.Node, excluded *xmldom.Element) {
	switch t := n.(type) {
	case *xmldom.Element:
		if t == excluded {
			return
		}
		s.StartElement(t.Prefix, t.Local, t.Attrs)
		for _, c := range t.Children {
			s.walk(c, excluded)
		}
		s.EndElement(t.Prefix, t.Local)
	case *xmldom.Text:
		text(s, t.Data)
	case *xmldom.Comment:
		comment(s, t.Data)
	case *xmldom.ProcInst:
		procInst(s, t.Target, t.Data)
	}
}

// CanonicalizeString is a convenience that parses and canonicalizes a
// document in one step, mainly for tests and tools.
func CanonicalizeString(xmlText string, opts Options) ([]byte, error) {
	doc, err := xmldom.ParseString(xmlText)
	if err != nil {
		return nil, err
	}
	return CanonicalizeDocument(doc, opts)
}
