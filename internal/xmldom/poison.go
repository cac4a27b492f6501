//go:build domPoison

package xmldom

// The domPoison test build: Release overwrites every slot it hands
// back with a sentinel instead of clearing it, so a model or verdict
// that kept a node, an attribute slice or a child slice past its
// document's release reads visibly wrong data (a NUL-led name or
// value no parse can produce) instead of silently right data that the
// next parse would overwrite. Run a package's tests with
// `go test -tags domPoison`.

// poisoned is the value a released text node, attribute value and
// element name read as.
const poisoned = "\x00released"

var (
	poisonText    = &Text{Data: poisoned}
	poisonElement = Element{Prefix: poisoned, Local: poisoned}
	poisonAttr    = Attr{Prefix: poisoned, Local: poisoned, Value: poisoned}
)

func scrubElements(s []Element) {
	for i := range s {
		s[i] = poisonElement
	}
}

func scrubTexts(s []Text) {
	for i := range s {
		s[i] = *poisonText
	}
}

func scrubAttrs(s []Attr) {
	for i := range s {
		s[i] = poisonAttr
	}
}

func scrubNodes(s []Node) {
	for i := range s {
		s[i] = poisonText
	}
}
