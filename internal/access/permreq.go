// Package access implements the access-control mechanisms of the paper's
// §3.1 and §4: MHP-style XML "permission request files" attached to
// interactive applications, and an XACML-lite policy decision point the
// player consults to grant or refuse the requested rights (use of the
// return channel, writing to local storage, access to the graphics
// plane, and so on).
package access

import (
	"errors"
	"fmt"
	"strings"

	"discsec/internal/xmldom"
)

// Well-known permission names used by the player runtime. Content may
// request arbitrary names; these are the ones the reference player
// enforces.
const (
	PermLocalStorageRead  = "localstorage.read"
	PermLocalStorageWrite = "localstorage.write"
	PermNetworkConnect    = "network.connect"
	PermGraphicsPlane     = "graphics.plane"
	PermReturnChannel     = "returnchannel.dial"
	PermMediaSelect       = "media.select"
)

// Permission is one requested (or granted) right, optionally narrowed to
// a target (a storage path, a host, a plane identifier). A "*" target —
// or an empty one — means any target.
type Permission struct {
	Name   string
	Target string
}

// String renders the permission in name[target] form.
func (p Permission) String() string {
	if p.Target == "" || p.Target == "*" {
		return p.Name
	}
	return p.Name + "[" + p.Target + "]"
}

// PermissionRequest is the MHP-style permission request file a content
// creator attaches alongside the application markup (paper §4).
type PermissionRequest struct {
	// AppID identifies the application (MHP uses hex appid).
	AppID string
	// OrgID identifies the organisation.
	OrgID string
	// Permissions lists the requested rights.
	Permissions []Permission
}

// permReqRoot is the document element name of a permission request file.
const permReqRoot = "permissionrequestfile"

// ParsePermissionRequest reads a permission request document:
//
//	<permissionrequestfile appid="0x4001" orgid="0x0001">
//	  <permission name="localstorage.write" target="scores/*"/>
//	  <permission name="graphics.plane"/>
//	</permissionrequestfile>
func ParsePermissionRequest(doc *xmldom.Document) (*PermissionRequest, error) {
	root := doc.Root()
	if root == nil || root.Local != permReqRoot {
		return nil, fmt.Errorf("access: document element must be <%s>", permReqRoot)
	}
	pr := &PermissionRequest{
		AppID: root.AttrValue("appid"),
		OrgID: root.AttrValue("orgid"),
	}
	for _, el := range root.AppendChildElementsNamed(nil, "", "permission") {
		name, ok := el.Attr("name")
		if !ok || name == "" {
			return nil, errors.New("access: <permission> missing name attribute")
		}
		pr.Permissions = append(pr.Permissions, Permission{Name: name, Target: el.AttrValue("target")})
	}
	return pr, nil
}

// ParsePermissionRequestString parses a permission request from text.
func ParsePermissionRequestString(s string) (*PermissionRequest, error) {
	doc, err := xmldom.ParseString(s)
	if err != nil {
		return nil, err
	}
	return ParsePermissionRequest(doc)
}

// Document renders the request as an XML document.
func (pr *PermissionRequest) Document() *xmldom.Document {
	doc := &xmldom.Document{}
	root := xmldom.NewElement(permReqRoot)
	if pr.AppID != "" {
		root.SetAttr("appid", pr.AppID)
	}
	if pr.OrgID != "" {
		root.SetAttr("orgid", pr.OrgID)
	}
	for _, p := range pr.Permissions {
		el := root.CreateChild("permission")
		el.SetAttr("name", p.Name)
		if p.Target != "" {
			el.SetAttr("target", p.Target)
		}
	}
	doc.SetRoot(root)
	return doc
}

// GrantSet is the outcome of evaluating a permission request: the rights
// the platform actually conceded.
type GrantSet struct {
	granted []Permission
	denied  []Permission
}

// Granted returns the conceded permissions.
func (g *GrantSet) Granted() []Permission { return append([]Permission(nil), g.granted...) }

// Denied returns the refused permissions.
func (g *GrantSet) Denied() []Permission { return append([]Permission(nil), g.denied...) }

// Allows reports whether an action on a concrete target is covered by a
// granted permission. Grant targets match exactly, by "*", or by a
// trailing-"*" glob ("scores/*").
func (g *GrantSet) Allows(name, target string) bool {
	for _, p := range g.granted {
		if p.Name != name {
			continue
		}
		if targetMatches(p.Target, target) {
			return true
		}
	}
	return false
}

func targetMatches(pattern, target string) bool {
	switch {
	case pattern == "" || pattern == "*":
		return true
	case strings.HasSuffix(pattern, "*"):
		return strings.HasPrefix(target, pattern[:len(pattern)-1])
	default:
		return pattern == target
	}
}
