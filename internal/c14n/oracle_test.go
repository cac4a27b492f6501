package c14n

// The reference canonicalizer: a recursive tree walker that resolves
// namespaces by walking the ancestor chain per element and computes
// every rule from maps — slow, but a direct reading of the
// recommendations. The differential tests and fuzz targets hold the
// Stream core to it.

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"discsec/internal/xmldom"
)

// oracleCanonicalize renders the subtree rooted at e in canonical form. The
// element is treated as the apex of a document subset: for inclusive
// canonicalization its in-scope namespaces and inherited xml:* attributes
// are imported per C14N 1.0; for exclusive canonicalization only visibly
// utilized namespaces are emitted.
func oracleCanonicalize(e *xmldom.Element, opts Options) ([]byte, error) {
	var buf bytes.Buffer
	c := &canonicalizer{w: &buf, opts: opts}
	if err := c.element(e, true, nil); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// oracleCanonicalizeDocument renders a whole document in canonical form,
// including top-level processing instructions and (optionally) comments
// with the newline placement the recommendation specifies.
func oracleCanonicalizeDocument(d *xmldom.Document, opts Options) ([]byte, error) {
	root := d.Root()
	if root == nil {
		return nil, fmt.Errorf("c14n: document has no root element")
	}
	var buf bytes.Buffer
	c := &canonicalizer{w: &buf, opts: opts}
	seenRoot := false
	for _, n := range d.Children {
		switch t := n.(type) {
		case *xmldom.Element:
			if err := c.element(t, true, nil); err != nil {
				return nil, err
			}
			seenRoot = true
		case *xmldom.ProcInst:
			if seenRoot {
				buf.WriteByte('\n')
			}
			c.procInst(t)
			if !seenRoot {
				buf.WriteByte('\n')
			}
		case *xmldom.Comment:
			if !opts.WithComments {
				continue
			}
			if seenRoot {
				buf.WriteByte('\n')
			}
			c.comment(t)
			if !seenRoot {
				buf.WriteByte('\n')
			}
		}
	}
	return buf.Bytes(), nil
}

type canonicalizer struct {
	w    *bytes.Buffer
	opts Options
}

// nsEntry is a namespace declaration pending output.
type nsEntry struct {
	prefix string
	uri    string
}

// element renders e. For inclusive mode, parent namespace context is
// derived from the real tree (nil ancestors for the apex). For exclusive
// mode, rendered carries the (prefix, uri) pairs already emitted by
// output ancestors.
func (c *canonicalizer) element(e *xmldom.Element, apex bool, rendered map[string]string) error {
	var nsList []nsEntry
	var childRendered map[string]string

	if c.opts.Exclusive {
		nsList, childRendered = c.exclusiveNamespaces(e, rendered)
	} else {
		nsList = c.inclusiveNamespaces(e, apex)
	}

	sort.Slice(nsList, func(i, j int) bool { return nsList[i].prefix < nsList[j].prefix })

	attrs := c.sortedAttrs(e, apex)

	c.w.WriteString("<")
	c.w.WriteString(e.Name())
	for _, ns := range nsList {
		if ns.prefix == "" {
			c.w.WriteString(` xmlns="`)
		} else {
			c.w.WriteString(" xmlns:" + ns.prefix + `="`)
		}
		writeAttrValue(c.w, ns.uri)
		c.w.WriteString(`"`)
	}
	for _, a := range attrs {
		c.w.WriteString(" " + a.Name() + `="`)
		writeAttrValue(c.w, a.Value)
		c.w.WriteString(`"`)
	}
	c.w.WriteString(">")

	for _, child := range e.Children {
		switch t := child.(type) {
		case *xmldom.Element:
			if err := c.element(t, false, childRendered); err != nil {
				return err
			}
		case *xmldom.Text:
			writeText(c.w, t.Data)
		case *xmldom.Comment:
			if c.opts.WithComments {
				c.comment(t)
			}
		case *xmldom.ProcInst:
			c.procInst(t)
		}
	}

	c.w.WriteString("</" + e.Name() + ">")
	return nil
}

// inclusiveNamespaces computes the namespace declarations Canonical XML
// 1.0 renders on e: every in-scope namespace node whose value differs
// from the nearest output ancestor's binding of the same prefix. For the
// apex element the output-ancestor context is empty, so all in-scope
// bindings are rendered.
func (c *canonicalizer) inclusiveNamespaces(e *xmldom.Element, apex bool) []nsEntry {
	inScope := fullInScope(e)
	var parentScope map[string]string
	if !apex {
		parentScope = fullInScope(e.ParentElement())
	}
	var out []nsEntry
	for prefix, uri := range inScope {
		if prefix == "xml" && uri == xmldom.XMLNamespace {
			continue
		}
		parentURI, inParent := "", false
		if parentScope != nil {
			parentURI, inParent = parentScope[prefix]
		}
		if prefix == "" && uri == "" {
			// xmlns="" is rendered only to cancel an inherited
			// non-empty default namespace.
			if inParent && parentURI != "" {
				out = append(out, nsEntry{prefix: "", uri: ""})
			}
			continue
		}
		if !inParent || parentURI != uri {
			out = append(out, nsEntry{prefix: prefix, uri: uri})
		}
	}
	return out
}

// exclusiveNamespaces computes the namespace declarations Exclusive C14N
// renders on e: visibly utilized prefixes (the element's own prefix and
// prefixes of its non-namespace attributes) plus the InclusiveNamespaces
// PrefixList, each rendered unless an output ancestor already rendered
// the identical binding. It returns the declarations to emit and the
// rendered-context map for e's children.
func (c *canonicalizer) exclusiveNamespaces(e *xmldom.Element, rendered map[string]string) ([]nsEntry, map[string]string) {
	utilized := map[string]bool{e.Prefix: true}
	for _, a := range e.Attrs {
		if a.IsNamespaceDecl() {
			continue
		}
		if a.Prefix != "" {
			utilized[a.Prefix] = true
		}
	}
	for _, p := range c.opts.InclusivePrefixes {
		if p == "#default" {
			utilized[""] = true
		} else {
			utilized[p] = true
		}
	}

	var out []nsEntry
	child := rendered
	copied := false
	emit := func(prefix, uri string) {
		out = append(out, nsEntry{prefix: prefix, uri: uri})
		if !copied {
			child = copyMap(rendered)
			copied = true
		}
		child[prefix] = uri
	}

	scope := fullInScope(e)
	for prefix := range utilized {
		uri := scope[prefix]
		if prefix == "xml" && uri == xmldom.XMLNamespace {
			continue
		}
		prev, has := "", false
		if rendered != nil {
			prev, has = rendered[prefix]
		}
		if prefix == "" && uri == "" {
			if has && prev != "" {
				emit("", "")
			}
			continue
		}
		if uri == "" {
			// Unbound non-default prefix: nothing to declare.
			continue
		}
		if !has || prev != uri {
			emit(prefix, uri)
		}
	}
	return out, child
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m)+2)
	for k, v := range m {
		out[k] = v
	}
	return out
}

// fullInScope returns every namespace binding in scope at e, including an
// explicit empty default namespace when an xmlns="" declaration (or the
// absence of any default declaration) leaves the default unbound. The
// map always contains the fixed xml binding. A nil element yields nil.
func fullInScope(e *xmldom.Element) map[string]string {
	if e == nil {
		return nil
	}
	out := map[string]string{"xml": xmldom.XMLNamespace}
	seen := map[string]bool{}
	for cur := e; cur != nil; cur = cur.ParentElement() {
		for _, a := range cur.Attrs {
			if !a.IsNamespaceDecl() {
				continue
			}
			p := a.DeclaredPrefix()
			if seen[p] {
				continue
			}
			seen[p] = true
			out[p] = a.Value
		}
	}
	if _, ok := out[""]; !ok {
		out[""] = ""
	}
	return out
}

// sortedAttrs returns e's non-namespace attributes in canonical order:
// ascending by (namespace URI, local name); unprefixed attributes have no
// namespace and sort first. For the apex of an inclusive canonicalization
// the inheritable xml:* attributes of excluded ancestors are imported.
func (c *canonicalizer) sortedAttrs(e *xmldom.Element, apex bool) []xmldom.Attr {
	var attrs []xmldom.Attr
	present := map[string]bool{}
	for _, a := range e.Attrs {
		if a.IsNamespaceDecl() {
			continue
		}
		attrs = append(attrs, a)
		if a.Prefix == "xml" {
			present[a.Local] = true
		}
	}

	if apex && !c.opts.Exclusive && e.ParentElement() != nil {
		// Import inheritable xml:* attributes (xml:lang, xml:space,
		// xml:base) from excluded ancestors, nearest wins.
		for cur := e.ParentElement(); cur != nil; cur = cur.ParentElement() {
			for _, a := range cur.Attrs {
				if a.Prefix != "xml" || present[a.Local] {
					continue
				}
				if a.Local == "lang" || a.Local == "space" || a.Local == "base" {
					attrs = append(attrs, a)
					present[a.Local] = true
				}
			}
		}
	}

	// Attribute namespace resolution through the scope table (an
	// unprefixed attribute is in no namespace).
	var scope map[string]string
	attrNS := func(a xmldom.Attr) string {
		if a.Prefix == "" {
			return ""
		}
		if a.Prefix == "xml" {
			return xmldom.XMLNamespace
		}
		if scope == nil {
			scope = fullInScope(e)
		}
		return scope[a.Prefix]
	}
	sort.SliceStable(attrs, func(i, j int) bool {
		ui := attrNS(attrs[i])
		uj := attrNS(attrs[j])
		if ui != uj {
			return ui < uj
		}
		return attrs[i].Local < attrs[j].Local
	})
	return attrs
}

func (c *canonicalizer) comment(cm *xmldom.Comment) {
	c.w.WriteString("<!--")
	c.w.WriteString(cm.Data)
	c.w.WriteString("-->")
}

func (c *canonicalizer) procInst(pi *xmldom.ProcInst) {
	c.w.WriteString("<?")
	c.w.WriteString(pi.Target)
	if pi.Data != "" {
		c.w.WriteString(" ")
		c.w.WriteString(pi.Data)
	}
	c.w.WriteString("?>")
}

// writeText escapes character data per the canonical form: & < > and CR.
func writeText(w io.Writer, s string) {
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
		io.WriteString(w, s[last:i])
		io.WriteString(w, rep)
		last = i + 1
	}
	io.WriteString(w, s[last:])
}

// writeAttrValue escapes attribute values per the canonical form:
// & < " TAB LF CR.
func writeAttrValue(w io.Writer, s string) {
	last := 0
	for i := 0; i < len(s); i++ {
		var rep string
		switch s[i] {
		case '&':
			rep = "&amp;"
		case '<':
			rep = "&lt;"
		case '"':
			rep = "&quot;"
		case '\t':
			rep = "&#x9;"
		case '\n':
			rep = "&#xA;"
		case '\r':
			rep = "&#xD;"
		default:
			continue
		}
		io.WriteString(w, s[last:i])
		io.WriteString(w, rep)
		last = i + 1
	}
	io.WriteString(w, s[last:])
}

// oracleCanonicalizeExcept renders the subtree at apex without the
// excluded element the way the enveloped-signature transform used to:
// on a deep copy grafted under copies of its ancestors (so inherited
// namespaces and xml:* attributes still resolve), with the excluded
// element removed from the copy.
func oracleCanonicalizeExcept(apex, excluded *xmldom.Element, opts Options) ([]byte, error) {
	if excluded == nil {
		return oracleCanonicalize(apex, opts)
	}
	var path []int
	for cur := excluded; cur != apex; cur = cur.ParentElement() {
		path = append([]int{cur.ParentElement().ChildIndex(cur)}, path...)
	}
	clone := apex.Clone()
	child := clone
	for anc := apex.ParentElement(); anc != nil; anc = anc.ParentElement() {
		shell := &xmldom.Element{Prefix: anc.Prefix, Local: anc.Local}
		shell.Attrs = append([]xmldom.Attr(nil), anc.Attrs...)
		shell.AppendChild(child)
		child = shell
	}
	cur := clone
	for _, idx := range path[:len(path)-1] {
		cur = cur.Children[idx].(*xmldom.Element)
	}
	cur.RemoveChild(cur.Children[path[len(path)-1]])
	return oracleCanonicalize(clone, opts)
}
