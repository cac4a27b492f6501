package markup

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"discsec/internal/xmldom"
)

// SMIL-lite: the layout and timing submarkup vocabularies of the
// reference interactive application (paper §8.1 chose SMIL for timing and
// layout). The model is deliberately small — regions, sequential and
// parallel time containers, media items — but rich enough that the
// engine produces an observable presentation plan.

// SMILNamespace is the namespace of the SMIL-lite vocabulary.
const SMILNamespace = "urn:discsec:smil"

// Layout is the spatial composition: a set of named regions.
type Layout struct {
	Regions []Region
}

// Region is a rectangular presentation area.
type Region struct {
	ID            string
	Left, Top     int
	Width, Height int
	ZIndex        int
}

// ParseLayout reads a <layout> element.
func ParseLayout(el *xmldom.Element) (*Layout, error) {
	if el == nil || el.Local != "layout" {
		return nil, errors.New("markup: expected <layout> element")
	}
	l := &Layout{}
	seen := map[string]bool{}
	for _, rEl := range el.AppendChildElementsNamed(nil, "", "region") {
		r := Region{ID: rEl.AttrValue("id")}
		if r.ID == "" {
			return nil, errors.New("markup: <region> missing id")
		}
		if seen[r.ID] {
			return nil, fmt.Errorf("markup: duplicate region id %q", r.ID)
		}
		seen[r.ID] = true
		var err error
		if r.Left, err = intAttr(rEl, "left", 0); err != nil {
			return nil, err
		}
		if r.Top, err = intAttr(rEl, "top", 0); err != nil {
			return nil, err
		}
		if r.Width, err = intAttr(rEl, "width", 1920); err != nil {
			return nil, err
		}
		if r.Height, err = intAttr(rEl, "height", 1080); err != nil {
			return nil, err
		}
		if r.ZIndex, err = intAttr(rEl, "z-index", 0); err != nil {
			return nil, err
		}
		if r.Width <= 0 || r.Height <= 0 {
			return nil, fmt.Errorf("markup: region %q has non-positive size", r.ID)
		}
		l.Regions = append(l.Regions, r)
	}
	return l, nil
}

// Region returns the region with the given id, or nil.
func (l *Layout) Region(id string) *Region {
	for i := range l.Regions {
		if l.Regions[i].ID == id {
			return &l.Regions[i]
		}
	}
	return nil
}

// Element renders the layout as markup.
func (l *Layout) Element() *xmldom.Element {
	el := xmldom.NewElement("layout")
	el.DeclareNamespace("", SMILNamespace)
	for _, r := range l.Regions {
		rEl := el.CreateChild("region")
		rEl.SetAttr("id", r.ID)
		rEl.SetAttr("left", strconv.Itoa(r.Left))
		rEl.SetAttr("top", strconv.Itoa(r.Top))
		rEl.SetAttr("width", strconv.Itoa(r.Width))
		rEl.SetAttr("height", strconv.Itoa(r.Height))
		if r.ZIndex != 0 {
			rEl.SetAttr("z-index", strconv.Itoa(r.ZIndex))
		}
	}
	return el
}

// TimingNode is a node of the timing tree: a container (seq/par) or a
// media item.
type TimingNode struct {
	// Kind is "seq", "par", or a media kind ("img", "video", "audio",
	// "text").
	Kind string
	// DurMS is the explicit duration in milliseconds (media defaults
	// to 1000ms when unset; containers derive from children).
	DurMS int64
	// BeginMS delays the node start relative to its parent context.
	BeginMS int64
	// Repeat replays a container's children (seq/par only); 0 and 1
	// both mean a single pass.
	Repeat int
	// Region targets a layout region (media only).
	Region string
	// Src names the presented resource (media only).
	Src string
	// Children are nested nodes (containers only).
	Children []*TimingNode
}

var mediaKinds = map[string]bool{"img": true, "video": true, "audio": true, "text": true}

// ParseTiming reads a <timing> element whose single child is the root
// time container.
func ParseTiming(el *xmldom.Element) (*TimingNode, error) {
	if el == nil || el.Local != "timing" {
		return nil, errors.New("markup: expected <timing> element")
	}
	kids := el.ChildElements()
	if len(kids) != 1 {
		return nil, fmt.Errorf("markup: <timing> must contain exactly one time container, has %d", len(kids))
	}
	return parseTimingNode(kids[0])
}

func parseTimingNode(el *xmldom.Element) (*TimingNode, error) {
	n := &TimingNode{Kind: el.Local}
	var err error
	if n.DurMS, err = clockAttr(el, "dur"); err != nil {
		return nil, err
	}
	if n.BeginMS, err = clockAttr(el, "begin"); err != nil {
		return nil, err
	}
	switch {
	case n.Kind == "seq" || n.Kind == "par":
		if v, ok := el.Attr("repeat"); ok {
			r, err := strconv.Atoi(v)
			if err != nil || r < 1 {
				return nil, fmt.Errorf("markup: bad repeat %q", v)
			}
			n.Repeat = r
		}
		for _, k := range el.ChildElements() {
			c, err := parseTimingNode(k)
			if err != nil {
				return nil, err
			}
			n.Children = append(n.Children, c)
		}
	case mediaKinds[n.Kind]:
		n.Region = el.AttrValue("region")
		n.Src = el.AttrValue("src")
		if n.DurMS == 0 {
			n.DurMS = 1000
		}
	default:
		return nil, fmt.Errorf("markup: unknown timing element <%s>", n.Kind)
	}
	return n, nil
}

// Element renders the timing tree as markup under a <timing> wrapper.
func (n *TimingNode) Element() *xmldom.Element {
	wrapper := xmldom.NewElement("timing")
	wrapper.DeclareNamespace("", SMILNamespace)
	wrapper.AppendChild(n.element())
	return wrapper
}

func (n *TimingNode) element() *xmldom.Element {
	el := xmldom.NewElement(n.Kind)
	if n.DurMS > 0 && (n.Kind == "seq" || n.Kind == "par" || n.DurMS != 1000) {
		el.SetAttr("dur", formatClock(n.DurMS))
	}
	if n.BeginMS > 0 {
		el.SetAttr("begin", formatClock(n.BeginMS))
	}
	if n.Repeat > 1 {
		el.SetAttr("repeat", strconv.Itoa(n.Repeat))
	}
	if n.Region != "" {
		el.SetAttr("region", n.Region)
	}
	if n.Src != "" {
		el.SetAttr("src", n.Src)
	}
	for _, c := range n.Children {
		el.AppendChild(c.element())
	}
	return el
}

// Duration computes the node's effective duration: explicit dur wins;
// seq sums children (with begins); par takes the max child end.
func (n *TimingNode) Duration() int64 {
	if n.DurMS > 0 && (n.Kind == "seq" || n.Kind == "par") {
		return n.DurMS
	}
	reps := int64(1)
	if n.Repeat > 1 {
		reps = int64(n.Repeat)
	}
	switch n.Kind {
	case "seq":
		var total int64
		for _, c := range n.Children {
			total += c.BeginMS + c.Duration()
		}
		return total * reps
	case "par":
		var maxEnd int64
		for _, c := range n.Children {
			if end := c.BeginMS + c.Duration(); end > maxEnd {
				maxEnd = end
			}
		}
		return maxEnd * reps
	default:
		return n.DurMS
	}
}

// PresentationEvent is one scheduled media presentation: the engine's
// observable output.
type PresentationEvent struct {
	StartMS, EndMS int64
	Kind           string
	Region         string
	Src            string
}

// Schedule flattens the timing tree into ordered presentation events.
func (n *TimingNode) Schedule() []PresentationEvent {
	var out []PresentationEvent
	scheduleInto(n, 0, &out)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].StartMS != out[j].StartMS {
			return out[i].StartMS < out[j].StartMS
		}
		return out[i].Src < out[j].Src
	})
	return out
}

func scheduleInto(n *TimingNode, t0 int64, out *[]PresentationEvent) int64 {
	start := t0 + n.BeginMS
	reps := 1
	if n.Repeat > 1 {
		reps = n.Repeat
	}
	switch n.Kind {
	case "seq":
		cur := start
		for r := 0; r < reps; r++ {
			for _, c := range n.Children {
				cur = scheduleInto(c, cur, out)
			}
		}
		return cur
	case "par":
		end := start
		iterStart := start
		for r := 0; r < reps; r++ {
			iterEnd := iterStart
			for _, c := range n.Children {
				if e := scheduleInto(c, iterStart, out); e > iterEnd {
					iterEnd = e
				}
			}
			iterStart = iterEnd
			end = iterEnd
		}
		return end
	default:
		end := start + n.Duration()
		*out = append(*out, PresentationEvent{
			StartMS: start, EndMS: end,
			Kind: n.Kind, Region: n.Region, Src: n.Src,
		})
		return end
	}
}

// ValidateAgainstLayout checks that every media region reference exists.
func (n *TimingNode) ValidateAgainstLayout(l *Layout) error {
	if mediaKinds[n.Kind] && n.Kind != "audio" {
		if n.Region == "" {
			return fmt.Errorf("markup: media %q has no region", n.Src)
		}
		if l.Region(n.Region) == nil {
			return fmt.Errorf("markup: media %q targets unknown region %q", n.Src, n.Region)
		}
	}
	for _, c := range n.Children {
		if err := c.ValidateAgainstLayout(l); err != nil {
			return err
		}
	}
	return nil
}

func intAttr(el *xmldom.Element, name string, def int) (int, error) {
	v, ok := el.Attr(name)
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("markup: attribute %s=%q: %w", name, v, err)
	}
	return n, nil
}

// clockAttr parses a SMIL clock value: "5s", "1.5s", "1500ms", "2min",
// or a bare number of seconds.
func clockAttr(el *xmldom.Element, name string) (int64, error) {
	v, ok := el.Attr(name)
	if !ok || v == "" {
		return 0, nil
	}
	return ParseClock(v)
}

// ParseClock parses a SMIL-style clock value into milliseconds.
func ParseClock(v string) (int64, error) {
	v = strings.TrimSpace(v)
	mult := 1000.0
	switch {
	case strings.HasSuffix(v, "ms"):
		mult = 1
		v = strings.TrimSuffix(v, "ms")
	case strings.HasSuffix(v, "min"):
		mult = 60000
		v = strings.TrimSuffix(v, "min")
	case strings.HasSuffix(v, "h"):
		mult = 3600000
		v = strings.TrimSuffix(v, "h")
	case strings.HasSuffix(v, "s"):
		v = strings.TrimSuffix(v, "s")
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("markup: malformed clock value %q", v)
	}
	if f < 0 {
		return 0, fmt.Errorf("markup: negative clock value %q", v)
	}
	return int64(f * mult), nil
}

func formatClock(ms int64) string {
	if ms%1000 == 0 {
		return strconv.FormatInt(ms/1000, 10) + "s"
	}
	return strconv.FormatInt(ms, 10) + "ms"
}
