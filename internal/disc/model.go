// Package disc models the next-generation optical disc content hierarchy
// of the paper's §2 (Fig. 2): an Interactive Cluster containing Tracks,
// which hold Audio/Video Playlists (referencing Clip Information and
// MPEG-2 transport stream files) and Application Manifests (Markup +
// Code, decomposed into SubMarkups and Scripts).
//
// The package also provides the disc substrate the prototype needs: a
// virtual disc image container, a synthetic transport-stream generator
// standing in for studio HD footage, and the player's quota-managed local
// storage.
package disc

import (
	"errors"
	"fmt"
	"strings"

	"discsec/internal/xmldom"
)

// ClusterNamespace is the XML namespace of the content hierarchy
// vocabulary.
const ClusterNamespace = "urn:discsec:cluster"

// TrackKind distinguishes A/V tracks from application tracks.
type TrackKind string

// Track kinds.
const (
	TrackAV          TrackKind = "av"
	TrackApplication TrackKind = "application"
)

// InteractiveCluster is the top of the content hierarchy: the generic
// representation of packaged content including video, audio, and markup
// application.
type InteractiveCluster struct {
	// Title names the packaged work.
	Title string
	// Tracks are the chapters: A/V playlists and application manifests.
	Tracks []*Track
}

// Track is one chapter: either an A/V playlist or an application
// manifest.
type Track struct {
	// ID identifies the track within the cluster.
	ID string
	// Kind selects the payload variant.
	Kind TrackKind
	// Playlist is set for A/V tracks.
	Playlist *Playlist
	// Manifest is set for application tracks.
	Manifest *Manifest
}

// Playlist holds meta-information about play items and refers to clip
// information.
type Playlist struct {
	Name  string
	Items []PlayItem
}

// PlayItem is one entry of a playlist.
type PlayItem struct {
	// ClipID refers to a ClipInfo.
	ClipID string
	// InMS/OutMS bound the presented range in milliseconds.
	InMS, OutMS int64
}

// ClipInfo links a playlist to an MPEG-2 transport stream file on the
// disc.
type ClipInfo struct {
	ID string
	// File is the image path of the transport stream.
	File string
	// DurationMS is the clip duration in milliseconds.
	DurationMS int64
	// BitrateKbps is the nominal stream bitrate.
	BitrateKbps int
}

// Manifest represents the Interactive Application: the markup part
// captures static composition (layout, timing), the code part adds
// programmability.
type Manifest struct {
	// ID is the application identifier (also the signing target Id).
	ID string
	// Markup is the static composition.
	Markup Markup
	// Code is the programmable part.
	Code Code
	// PermissionFile is the image path of the attached permission
	// request file, empty when none.
	PermissionFile string
}

// Markup is the static part of a manifest, split into SubMarkups
// separating characteristics of the application (layout vs. timing).
type Markup struct {
	SubMarkups []SubMarkup
}

// SubMarkup is one markup concern. Content is a generic element tree; the
// internal/markup package interprets the SMIL-lite vocabularies.
type SubMarkup struct {
	// Kind labels the concern ("layout", "timing", ...).
	Kind string
	// Content is the root element of the submarkup.
	Content *xmldom.Element
}

// Code is the programmable part of a manifest.
type Code struct {
	Scripts []Script
}

// Script is one script of the code part.
type Script struct {
	// Language identifies the scripting language ("ecmascript").
	Language string
	// Source is the script text.
	Source string
}

// --- XML serialization -----------------------------------------------

// Document renders the cluster in the urn:discsec:cluster vocabulary.
func (c *InteractiveCluster) Document() *xmldom.Document {
	doc := &xmldom.Document{}
	root := xmldom.NewElement("cluster")
	root.DeclareNamespace("", ClusterNamespace)
	if c.Title != "" {
		root.SetAttr("title", c.Title)
	}
	for _, tr := range c.Tracks {
		root.AppendChild(tr.Element())
	}
	doc.SetRoot(root)
	return doc
}

// Element renders the track subtree (also used by the library routes to
// serve one verified track without re-serializing the whole cluster).
func (t *Track) Element() *xmldom.Element {
	el := xmldom.NewElement("track")
	el.SetAttr("Id", t.ID)
	el.SetAttr("kind", string(t.Kind))
	if t.Playlist != nil {
		pl := el.CreateChild("playlist")
		if t.Playlist.Name != "" {
			pl.SetAttr("name", t.Playlist.Name)
		}
		for _, it := range t.Playlist.Items {
			item := pl.CreateChild("playitem")
			item.SetAttr("clip", it.ClipID)
			item.SetAttr("in", fmt.Sprintf("%d", it.InMS))
			item.SetAttr("out", fmt.Sprintf("%d", it.OutMS))
		}
	}
	if t.Manifest != nil {
		el.AppendChild(t.Manifest.Element())
	}
	return el
}

// Element renders the manifest subtree.
func (m *Manifest) Element() *xmldom.Element {
	el := xmldom.NewElement("manifest")
	if m.ID != "" {
		el.SetAttr("Id", m.ID)
	}
	if m.PermissionFile != "" {
		el.SetAttr("permissionfile", m.PermissionFile)
	}
	mk := el.CreateChild("markup")
	for _, sm := range m.Markup.SubMarkups {
		smEl := mk.CreateChild("submarkup")
		smEl.SetAttr("kind", sm.Kind)
		if sm.Content != nil {
			smEl.AppendChild(sm.Content.Clone())
		}
	}
	code := el.CreateChild("code")
	for _, s := range m.Code.Scripts {
		sEl := code.CreateChild("script")
		lang := s.Language
		if lang == "" {
			lang = "ecmascript"
		}
		sEl.SetAttr("language", lang)
		sEl.AddText(s.Source)
	}
	return el
}

// ParseCluster reads a cluster document back into the model. Security
// markup is not part of the model: the result is the same as over a
// copy of doc with every element named Signature or EncryptedData, in
// any namespace, removed. doc is only read, and the model shares no
// element and no text with it, so it outlives doc's Release: script
// sources are copied out with strings.Clone, and the cloned markup's
// text nodes copy theirs (xmldom.Text.CloneNode).
func ParseCluster(doc *xmldom.Document) (*InteractiveCluster, error) {
	root := doc.Root()
	if root == nil || root.Local != "cluster" || root.NamespaceURI() != ClusterNamespace {
		return nil, errors.New("disc: document element must be cluster in " + ClusterNamespace)
	}
	c := &InteractiveCluster{Title: root.AttrValue("title")}
	trEls := root.AppendChildElementsNamed(make([]*xmldom.Element, 0, 4), ClusterNamespace, "track")
	if len(trEls) > 0 {
		c.Tracks = make([]*Track, 0, len(trEls))
	}
	for _, trEl := range trEls {
		tr, err := parseTrack(trEl)
		if err != nil {
			return nil, err
		}
		c.Tracks = append(c.Tracks, tr)
	}
	return c, nil
}

// ParseClusterString parses a cluster from text.
func ParseClusterString(s string) (*InteractiveCluster, error) {
	doc, err := xmldom.ParseString(s)
	if err != nil {
		return nil, err
	}
	return ParseCluster(doc)
}

func parseTrack(el *xmldom.Element) (*Track, error) {
	tr := &Track{ID: el.AttrValue("Id"), Kind: TrackKind(el.AttrValue("kind"))}
	switch tr.Kind {
	case TrackAV, TrackApplication:
	default:
		return nil, fmt.Errorf("disc: track %q has unknown kind %q", tr.ID, tr.Kind)
	}
	if plEl := el.FirstChildNamed(ClusterNamespace, "playlist"); plEl != nil {
		pl := &Playlist{Name: plEl.AttrValue("name")}
		itEls := plEl.AppendChildElementsNamed(make([]*xmldom.Element, 0, 4), ClusterNamespace, "playitem")
		if len(itEls) > 0 {
			pl.Items = make([]PlayItem, 0, len(itEls))
		}
		for _, itEl := range itEls {
			item := PlayItem{ClipID: itEl.AttrValue("clip")}
			if _, err := fmt.Sscanf(itEl.AttrValue("in"), "%d", &item.InMS); err != nil {
				return nil, fmt.Errorf("disc: playitem in: %w", err)
			}
			if _, err := fmt.Sscanf(itEl.AttrValue("out"), "%d", &item.OutMS); err != nil {
				return nil, fmt.Errorf("disc: playitem out: %w", err)
			}
			pl.Items = append(pl.Items, item)
		}
		tr.Playlist = pl
	}
	if mEl := el.FirstChildNamed(ClusterNamespace, "manifest"); mEl != nil {
		m, err := ParseManifestElement(mEl)
		if err != nil {
			return nil, err
		}
		tr.Manifest = m
	}
	if tr.Kind == TrackAV && tr.Playlist == nil {
		return nil, fmt.Errorf("disc: av track %q has no playlist", tr.ID)
	}
	if tr.Kind == TrackApplication && tr.Manifest == nil {
		return nil, fmt.Errorf("disc: application track %q has no manifest", tr.ID)
	}
	return tr, nil
}

// ParseManifestElement reads a manifest element back into the model,
// leaving out security markup as ParseCluster does.
func ParseManifestElement(el *xmldom.Element) (*Manifest, error) {
	m := &Manifest{ID: el.AttrValue("Id"), PermissionFile: el.AttrValue("permissionfile")}
	if mk := el.FirstChildNamed(ClusterNamespace, "markup"); mk != nil {
		smEls := mk.AppendChildElementsNamed(make([]*xmldom.Element, 0, 4), ClusterNamespace, "submarkup")
		if len(smEls) > 0 {
			m.Markup.SubMarkups = make([]SubMarkup, 0, len(smEls))
		}
		for _, smEl := range smEls {
			sm := SubMarkup{Kind: smEl.AttrValue("kind")}
			if content := firstContent(smEl); content != nil {
				sm.Content = cloneWithoutSecurityMarkup(content)
			}
			m.Markup.SubMarkups = append(m.Markup.SubMarkups, sm)
		}
	}
	if code := el.FirstChildNamed(ClusterNamespace, "code"); code != nil {
		sEls := code.AppendChildElementsNamed(make([]*xmldom.Element, 0, 4), ClusterNamespace, "script")
		if len(sEls) > 0 {
			m.Code.Scripts = make([]Script, 0, len(sEls))
		}
		for _, sEl := range sEls {
			m.Code.Scripts = append(m.Code.Scripts, Script{
				Language: sEl.AttrValue("language"),
				// The text views the document's arena; the model
				// outlives the document's Release.
				Source: strings.Clone(sEl.Text()),
			})
		}
	}
	return m, nil
}

// firstContent returns a submarkup's first child element that is not
// security markup.
func firstContent(sm *xmldom.Element) *xmldom.Element {
	for _, c := range sm.Children {
		if e, ok := c.(*xmldom.Element); ok && !isSecurityMarkup(e) {
			return e
		}
	}
	return nil
}

// isSecurityMarkup reports whether e is a signature or an encrypted
// region: markup the model does not carry.
func isSecurityMarkup(e *xmldom.Element) bool {
	return e.Local == "Signature" || e.Local == "EncryptedData"
}

// cloneWithoutSecurityMarkup deep-copies e, as e.Clone does, leaving
// out every security markup element below it. Attrs and Children are
// allocated once at their final size, and stay nil when empty.
func cloneWithoutSecurityMarkup(e *xmldom.Element) *xmldom.Element {
	out := &xmldom.Element{Prefix: e.Prefix, Local: e.Local}
	if len(e.Attrs) > 0 {
		out.Attrs = append(make([]xmldom.Attr, 0, len(e.Attrs)), e.Attrs...)
	}
	kept := 0
	for _, c := range e.Children {
		if ce, ok := c.(*xmldom.Element); !ok || !isSecurityMarkup(ce) {
			kept++
		}
	}
	if kept == 0 {
		return out
	}
	out.Children = make([]xmldom.Node, 0, kept)
	for _, c := range e.Children {
		ce, ok := c.(*xmldom.Element)
		switch {
		case !ok:
			out.AppendChild(c.CloneNode())
		case !isSecurityMarkup(ce):
			out.AppendChild(cloneWithoutSecurityMarkup(ce))
		}
	}
	return out
}

// FindTrack returns the track with the given ID, or nil.
func (c *InteractiveCluster) FindTrack(id string) *Track {
	for _, t := range c.Tracks {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// ApplicationTracks returns the application tracks in order.
func (c *InteractiveCluster) ApplicationTracks() []*Track {
	var out []*Track
	for _, t := range c.Tracks {
		if t.Kind == TrackApplication {
			out = append(out, t)
		}
	}
	return out
}

// AVTracks returns the audio/video tracks in order.
func (c *InteractiveCluster) AVTracks() []*Track {
	var out []*Track
	for _, t := range c.Tracks {
		if t.Kind == TrackAV {
			out = append(out, t)
		}
	}
	return out
}
