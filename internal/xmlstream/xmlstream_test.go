package xmlstream

import (
	"errors"
	"strings"
	"testing"
)

// recordingHandler flattens the token stream into a comparable event
// log, copying every reused buffer as the Handler contract requires.
type recordingHandler struct {
	events []string
}

func (r *recordingHandler) StartElement(prefix, local string, attrs []Attr) error {
	ev := "start " + renderName(prefix, local)
	for _, a := range attrs {
		ev += " " + a.Name() + "=" + a.Value
	}
	r.events = append(r.events, ev)
	return nil
}

func (r *recordingHandler) EndElement(prefix, local string) error {
	r.events = append(r.events, "end "+renderName(prefix, local))
	return nil
}

func (r *recordingHandler) Text(data []byte) error {
	r.events = append(r.events, "text "+string(data))
	return nil
}

func (r *recordingHandler) Comment(data []byte) error {
	r.events = append(r.events, "comment "+string(data))
	return nil
}

func (r *recordingHandler) ProcInst(target string, data []byte) error {
	r.events = append(r.events, "pi "+target+" "+string(data))
	return nil
}

func renderName(prefix, local string) string {
	if prefix == "" {
		return local
	}
	return prefix + ":" + local
}

func parseString(t *testing.T, doc string, opts Options) (*recordingHandler, error) {
	t.Helper()
	h := &recordingHandler{}
	return h, Parse(strings.NewReader(doc), opts, h)
}

func TestParseTokenStream(t *testing.T) {
	h, err := parseString(t,
		`<?xml version="1.0"?><a xmlns:p="urn:p" k="v"><p:b>hi</p:b><!-- c --><?app data?></a>`,
		Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"start a xmlns:p=urn:p k=v",
		"start p:b",
		"text hi",
		"end p:b",
		"comment  c ",
		"pi app data",
		"end a",
	}
	if len(h.events) != len(want) {
		t.Fatalf("events = %q, want %q", h.events, want)
	}
	for i := range want {
		if h.events[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, h.events[i], want[i])
		}
	}
}

func TestParseRejectsDoctype(t *testing.T) {
	// There is no opt-in: every declaration form is rejected, wherever
	// it appears.
	for _, doc := range []string{
		`<!DOCTYPE r [<!ENTITY x "y">]><r/>`,
		`<!DOCTYPE r><r/>`,
		`<r><!ENTITY x "y"></r>`,
	} {
		if _, err := parseString(t, doc, Options{}); !errors.Is(err, ErrDoctype) {
			t.Errorf("%q: err = %v, want ErrDoctype", doc, err)
		}
	}
}

func TestParseLimits(t *testing.T) {
	deep := strings.Repeat("<a>", 6) + strings.Repeat("</a>", 6)
	if _, err := parseString(t, deep, Options{MaxDepth: 5}); err == nil {
		t.Error("depth limit not enforced")
	}
	if _, err := parseString(t, deep, Options{MaxDepth: 6}); err != nil {
		t.Errorf("depth exactly at limit rejected: %v", err)
	}
	if _, err := parseString(t, `<a><b/><b/><b/></a>`, Options{MaxTokens: 4}); err == nil {
		t.Error("token limit not enforced")
	}
}

func TestParseWellFormedness(t *testing.T) {
	bad := map[string]string{
		"mismatched end":      `<a><b></a></b>`,
		"unclosed":            `<a><b>`,
		"multiple roots":      `<a/><b/>`,
		"no root":             `   `,
		"stray chardata":      `x<a/>`,
		"duplicate attr":      `<a k="1" k="2"/>`,
		"duplicate wide attr": `<a a1="" a2="" a3="" a4="" a5="" a6="" a7="" a8="" a9="" a10="" a11="" a12="" a13="" a14="" a15="" a16="" a1=""/>`,
	}
	for label, doc := range bad {
		if _, err := parseString(t, doc, Options{}); err == nil {
			t.Errorf("%s accepted: %q", label, doc)
		}
	}
}

// TestParseHandlerErrorStopsParse: the first handler error aborts the
// pass and surfaces unchanged.
func TestParseHandlerErrorStopsParse(t *testing.T) {
	sentinel := errors.New("stop here")
	h := &failingHandler{recordingHandler: &recordingHandler{}, failOn: "b", err: sentinel}
	err := Parse(strings.NewReader(`<a><b/><c/></a>`), Options{}, h)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	for _, ev := range h.events {
		if ev == "start c" {
			t.Error("parse continued past the failing handler")
		}
	}
}

type failingHandler struct {
	*recordingHandler
	failOn string
	err    error
}

func (f *failingHandler) StartElement(prefix, local string, attrs []Attr) error {
	if local == f.failOn {
		return f.err
	}
	return f.recordingHandler.StartElement(prefix, local, attrs)
}
