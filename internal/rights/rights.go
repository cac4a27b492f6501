// Package rights implements the XRML-style digital rights expression the
// paper's §9 proposes as future work: "an XML based rights management
// language … to express digital rights for the usage of markup-based
// applications and resources".
//
// A License is an XML document granting named principals usage rights
// (play, copy, export, modify, extract) over resources, optionally
// bounded by a play count and a validity window. Licenses are plain
// markup, so the existing stack applies: they are signed with XML-DSig
// by the rights issuer and verified by the player before being honored.
package rights

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"discsec/internal/xmldom"
)

// Namespace is the rights-expression vocabulary namespace.
const Namespace = "urn:discsec:rights"

// Right enumerates the usage rights the player understands.
type Right string

// Usage rights.
const (
	RightPlay    Right = "play"
	RightCopy    Right = "copy"
	RightExport  Right = "export"
	RightModify  Right = "modify"
	RightExtract Right = "extract"
)

// knownRights guards against typo'd rights silently never matching.
var knownRights = map[Right]bool{
	RightPlay: true, RightCopy: true, RightExport: true, RightModify: true, RightExtract: true,
}

// Grant conveys one right over one resource to one principal.
type Grant struct {
	// Principal names the grantee ("*" for anyone; otherwise matched
	// against the player/device identity).
	Principal string
	// Right is the conveyed usage right.
	Right Right
	// Resource identifies the governed content (manifest id, track id,
	// or "*" for the whole work).
	Resource string
	// MaxUses bounds exercises of the right; 0 means unlimited.
	MaxUses int
	// NotBefore/NotAfter bound validity; zero values mean unbounded.
	NotBefore, NotAfter time.Time
}

// License is a set of grants from an issuer.
type License struct {
	// ID identifies the license.
	ID string
	// Issuer names the rights issuer (matched against the license
	// signature's signer by the player).
	Issuer string
	// Grants lists the conveyed rights.
	Grants []Grant
}

// Document renders the license as XML (the form that gets signed).
func (l *License) Document() *xmldom.Document {
	doc := &xmldom.Document{}
	root := xmldom.NewElement("license")
	root.DeclareNamespace("", Namespace)
	if l.ID != "" {
		root.SetAttr("Id", l.ID)
	}
	if l.Issuer != "" {
		root.SetAttr("issuer", l.Issuer)
	}
	for _, g := range l.Grants {
		el := root.CreateChild("grant")
		el.SetAttr("principal", g.Principal)
		el.SetAttr("right", string(g.Right))
		el.SetAttr("resource", g.Resource)
		if g.MaxUses > 0 {
			el.SetAttr("maxuses", strconv.Itoa(g.MaxUses))
		}
		if !g.NotBefore.IsZero() {
			el.SetAttr("notbefore", g.NotBefore.UTC().Format(time.RFC3339))
		}
		if !g.NotAfter.IsZero() {
			el.SetAttr("notafter", g.NotAfter.UTC().Format(time.RFC3339))
		}
	}
	doc.SetRoot(root)
	return doc
}

// Parse reads a license document.
func Parse(doc *xmldom.Document) (*License, error) {
	root := doc.Root()
	if root == nil || root.Local != "license" || root.NamespaceURI() != Namespace {
		return nil, errors.New("rights: document element must be license in " + Namespace)
	}
	l := &License{ID: root.AttrValue("Id"), Issuer: root.AttrValue("issuer")}
	for _, el := range root.AppendChildElementsNamed(nil, Namespace, "grant") {
		g := Grant{
			Principal: el.AttrValue("principal"),
			Right:     Right(el.AttrValue("right")),
			Resource:  el.AttrValue("resource"),
		}
		if g.Principal == "" || g.Resource == "" {
			return nil, errors.New("rights: grant requires principal and resource")
		}
		if !knownRights[g.Right] {
			return nil, fmt.Errorf("rights: unknown right %q", g.Right)
		}
		if v, ok := el.Attr("maxuses"); ok {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("rights: bad maxuses %q", v)
			}
			g.MaxUses = n
		}
		var err error
		if g.NotBefore, err = timeAttr(el, "notbefore"); err != nil {
			return nil, err
		}
		if g.NotAfter, err = timeAttr(el, "notafter"); err != nil {
			return nil, err
		}
		l.Grants = append(l.Grants, g)
	}
	return l, nil
}

// ParseString parses a license from text.
func ParseString(s string) (*License, error) {
	doc, err := xmldom.ParseString(s)
	if err != nil {
		return nil, err
	}
	return Parse(doc)
}

func timeAttr(el *xmldom.Element, name string) (time.Time, error) {
	v, ok := el.Attr(name)
	if !ok {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("rights: bad %s %q: %w", name, v, err)
	}
	return t, nil
}

// Evaluator enforces licenses at runtime, tracking per-grant use counts.
type Evaluator struct {
	license *License
	// Now supplies the evaluation clock (injectable for tests and CE
	// devices without RTC trust).
	Now func() time.Time

	uses map[int]int // grant index -> exercised count
}

// Denial reasons.
var (
	// ErrNoGrant indicates no grant covers the request.
	ErrNoGrant = errors.New("rights: no applicable grant")
	// ErrExpired indicates the only applicable grants are outside
	// their validity window.
	ErrExpired = errors.New("rights: grant outside validity window")
	// ErrExhausted indicates the use count is spent.
	ErrExhausted = errors.New("rights: grant use count exhausted")
)

// NewEvaluator builds an evaluator over a parsed license.
func NewEvaluator(l *License) *Evaluator {
	return &Evaluator{license: l, Now: time.Now, uses: make(map[int]int)}
}

// Exercise attempts to exercise a right for a principal over a resource,
// consuming one use of the first applicable grant. The returned error
// explains denial.
func (e *Evaluator) Exercise(principal string, right Right, resource string) error {
	now := e.Now()
	sawExpired, sawExhausted := false, false
	for i, g := range e.license.Grants {
		if g.Right != right {
			continue
		}
		if g.Principal != "*" && g.Principal != principal {
			continue
		}
		if g.Resource != "*" && g.Resource != resource {
			continue
		}
		if (!g.NotBefore.IsZero() && now.Before(g.NotBefore)) ||
			(!g.NotAfter.IsZero() && now.After(g.NotAfter)) {
			sawExpired = true
			continue
		}
		if g.MaxUses > 0 && e.uses[i] >= g.MaxUses {
			sawExhausted = true
			continue
		}
		e.uses[i]++
		return nil
	}
	switch {
	case sawExhausted:
		return fmt.Errorf("%w: %s on %q for %q", ErrExhausted, right, resource, principal)
	case sawExpired:
		return fmt.Errorf("%w: %s on %q for %q", ErrExpired, right, resource, principal)
	default:
		return fmt.Errorf("%w: %s on %q for %q", ErrNoGrant, right, resource, principal)
	}
}

// SnapshotUses returns a copy of the per-grant use counters, keyed by
// grant index, for persistence across player sessions.
func (e *Evaluator) SnapshotUses() map[int]int {
	out := make(map[int]int, len(e.uses))
	for k, v := range e.uses {
		out[k] = v
	}
	return out
}

// RestoreUses replaces the per-grant use counters from a snapshot.
// Counters for grant indexes outside the license are discarded.
func (e *Evaluator) RestoreUses(snapshot map[int]int) {
	e.uses = make(map[int]int, len(snapshot))
	for k, v := range snapshot {
		if k >= 0 && k < len(e.license.Grants) && v > 0 {
			e.uses[k] = v
		}
	}
}

// RemainingUses reports the remaining use count of the first grant
// matching the query (-1 means unlimited). ok is false when no grant
// matches.
func (e *Evaluator) RemainingUses(principal string, right Right, resource string) (n int, ok bool) {
	for i, g := range e.license.Grants {
		if g.Right != right {
			continue
		}
		if g.Principal != "*" && g.Principal != principal {
			continue
		}
		if g.Resource != "*" && g.Resource != resource {
			continue
		}
		if g.MaxUses == 0 {
			return -1, true
		}
		rem := g.MaxUses - e.uses[i]
		if rem < 0 {
			rem = 0
		}
		return rem, true
	}
	return 0, false
}
