package access

import (
	"errors"
	"fmt"

	"discsec/internal/xmldom"
)

// XML serialization of the XACML-lite policy model, so platform policy
// can be provisioned, stored, and audited as markup like everything else
// in the content chain.

// ParsePolicySet reads a <policyset> document.
func ParsePolicySet(doc *xmldom.Document) (*PolicySet, error) {
	root := doc.Root()
	if root == nil || root.Local != "policyset" {
		return nil, errors.New("access: document element must be <policyset>")
	}
	return parsePolicySetElement(root)
}

// ParsePolicySetString parses a policy set from text.
func ParsePolicySetString(s string) (*PolicySet, error) {
	doc, err := xmldom.ParseString(s)
	if err != nil {
		return nil, err
	}
	return ParsePolicySet(doc)
}

func parsePolicySetElement(el *xmldom.Element) (*PolicySet, error) {
	ps := &PolicySet{ID: el.AttrValue("id")}
	var err error
	if ps.Combining, err = combiningAttr(el); err != nil {
		return nil, err
	}
	if ps.Target, err = parseTarget(el.FirstChildElement("target")); err != nil {
		return nil, err
	}
	for _, pEl := range el.AppendChildElementsNamed(nil, "", "policy") {
		p, err := parsePolicyElement(pEl)
		if err != nil {
			return nil, err
		}
		ps.Policies = append(ps.Policies, *p)
	}
	return ps, nil
}

func parsePolicyElement(el *xmldom.Element) (*Policy, error) {
	p := &Policy{ID: el.AttrValue("id")}
	var err error
	if p.Combining, err = combiningAttr(el); err != nil {
		return nil, err
	}
	if p.Target, err = parseTarget(el.FirstChildElement("target")); err != nil {
		return nil, err
	}
	for _, rEl := range el.AppendChildElementsNamed(nil, "", "rule") {
		r, err := parseRuleElement(rEl)
		if err != nil {
			return nil, err
		}
		p.Rules = append(p.Rules, *r)
	}
	return p, nil
}

func parseRuleElement(el *xmldom.Element) (*Rule, error) {
	r := &Rule{ID: el.AttrValue("id")}
	switch eff := el.AttrValue("effect"); eff {
	case "permit", "Permit", "":
		r.Effect = EffectPermit
	case "deny", "Deny":
		r.Effect = EffectDeny
	default:
		return nil, fmt.Errorf("access: unknown rule effect %q", eff)
	}
	var err error
	if r.Target, err = parseTarget(el.FirstChildElement("target")); err != nil {
		return nil, err
	}
	if cEl := el.FirstChildElement("condition"); cEl != nil {
		kids := cEl.ChildElements()
		if len(kids) != 1 {
			return nil, errors.New("access: <condition> must contain exactly one expression")
		}
		if r.Condition, err = parseCondition(kids[0]); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func combiningAttr(el *xmldom.Element) (Combining, error) {
	s := el.AttrValue("combining")
	if s == "" {
		return DenyOverrides, nil
	}
	return CombiningByName(s)
}

func parseTarget(el *xmldom.Element) (Target, error) {
	if el == nil {
		return nil, nil
	}
	var t Target
	for _, mEl := range el.AppendChildElementsNamed(nil, "", "match") {
		m, err := parseMatch(mEl)
		if err != nil {
			return nil, err
		}
		t = append(t, m)
	}
	return t, nil
}

func parseMatch(el *xmldom.Element) (Match, error) {
	m := Match{
		Category:  Category(el.AttrValue("category")),
		Attribute: el.AttrValue("attribute"),
		Op:        MatchOp(el.AttrValue("op")),
		Value:     el.AttrValue("value"),
	}
	if m.Op == "" {
		m.Op = OpEquals
	}
	switch m.Category {
	case CatSubject, CatResource, CatAction, CatEnvironment:
	default:
		return Match{}, fmt.Errorf("access: unknown match category %q", m.Category)
	}
	if m.Attribute == "" {
		return Match{}, errors.New("access: <match> missing attribute")
	}
	switch m.Op {
	case OpEquals, OpPrefix, OpSuffix, OpContains, OpGlob:
	default:
		return Match{}, fmt.Errorf("access: unknown match op %q", m.Op)
	}
	return m, nil
}

func parseCondition(el *xmldom.Element) (Condition, error) {
	switch el.Local {
	case "and":
		var and And
		for _, k := range el.ChildElements() {
			c, err := parseCondition(k)
			if err != nil {
				return nil, err
			}
			and = append(and, c)
		}
		return and, nil
	case "or":
		var or Or
		for _, k := range el.ChildElements() {
			c, err := parseCondition(k)
			if err != nil {
				return nil, err
			}
			or = append(or, c)
		}
		return or, nil
	case "not":
		kids := el.ChildElements()
		if len(kids) != 1 {
			return nil, errors.New("access: <not> must contain exactly one expression")
		}
		inner, err := parseCondition(kids[0])
		if err != nil {
			return nil, err
		}
		return Not{C: inner}, nil
	case "compare", "match":
		m, err := parseMatch(el)
		if err != nil {
			return nil, err
		}
		return Compare(m), nil
	case "present":
		cat := Category(el.AttrValue("category"))
		switch cat {
		case CatSubject, CatResource, CatAction, CatEnvironment:
		default:
			return nil, fmt.Errorf("access: unknown present category %q", cat)
		}
		return Present{Category: cat, Attribute: el.AttrValue("attribute")}, nil
	default:
		return nil, fmt.Errorf("access: unknown condition element <%s>", el.Local)
	}
}

// Document renders the policy set as XML.
func (ps *PolicySet) Document() *xmldom.Document {
	doc := &xmldom.Document{}
	root := xmldom.NewElement("policyset")
	if ps.ID != "" {
		root.SetAttr("id", ps.ID)
	}
	root.SetAttr("combining", ps.Combining.String())
	writeTarget(root, ps.Target)
	for i := range ps.Policies {
		writePolicy(root, &ps.Policies[i])
	}
	doc.SetRoot(root)
	return doc
}

func writePolicy(parent *xmldom.Element, p *Policy) {
	el := parent.CreateChild("policy")
	if p.ID != "" {
		el.SetAttr("id", p.ID)
	}
	el.SetAttr("combining", p.Combining.String())
	writeTarget(el, p.Target)
	for i := range p.Rules {
		writeRule(el, &p.Rules[i])
	}
}

func writeRule(parent *xmldom.Element, r *Rule) {
	el := parent.CreateChild("rule")
	if r.ID != "" {
		el.SetAttr("id", r.ID)
	}
	if r.Effect == EffectDeny {
		el.SetAttr("effect", "deny")
	} else {
		el.SetAttr("effect", "permit")
	}
	writeTarget(el, r.Target)
	if r.Condition != nil {
		cEl := el.CreateChild("condition")
		writeCondition(cEl, r.Condition)
	}
}

func writeTarget(parent *xmldom.Element, t Target) {
	if len(t) == 0 {
		return
	}
	el := parent.CreateChild("target")
	for _, m := range t {
		writeMatch(el, "match", m)
	}
}

func writeMatch(parent *xmldom.Element, name string, m Match) {
	el := parent.CreateChild(name)
	el.SetAttr("category", string(m.Category))
	el.SetAttr("attribute", m.Attribute)
	el.SetAttr("op", string(m.Op))
	el.SetAttr("value", m.Value)
}

func writeCondition(parent *xmldom.Element, c Condition) {
	switch t := c.(type) {
	case And:
		el := parent.CreateChild("and")
		for _, k := range t {
			writeCondition(el, k)
		}
	case Or:
		el := parent.CreateChild("or")
		for _, k := range t {
			writeCondition(el, k)
		}
	case Not:
		el := parent.CreateChild("not")
		writeCondition(el, t.C)
	case Compare:
		writeMatch(parent, "compare", Match(t))
	case Present:
		el := parent.CreateChild("present")
		el.SetAttr("category", string(t.Category))
		el.SetAttr("attribute", t.Attribute)
	}
}
