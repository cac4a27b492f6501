package analysis

import (
	"strconv"
)

// XMLParse enforces the single-parser rule: no production package
// imports encoding/xml. The one owner of XML tokenizing is
// internal/xmlstream's byte-level scanner (and internal/xmldom, the DOM
// built on it), which rejects DOCTYPE declarations, bounds nesting
// depth and token counts, and produces the node identity model the
// signature wrapping defences depend on. A stray xml.Unmarshal anywhere
// bypasses all of that and reopens the XXE and wrapping regressions the
// paper's Verifier assumes away. Test files are not analyzed, so
// xmlstream keeps its encoding/xml reference tokenizer in a _test.go
// file for differential testing.
var XMLParse = &Analyzer{
	Name: "xmlparse",
	Doc:  "no production package may import encoding/xml; untrusted XML goes through internal/xmlstream's hardened scanner (or internal/xmldom on top of it)",
	Run:  runXMLParse,
}

func runXMLParse(pass *Pass) {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || p != "encoding/xml" {
				continue
			}
			pass.Reportf(imp.Pos(),
				"encoding/xml imported by production code; parse untrusted XML with internal/xmldom or stream it through internal/xmlstream (doctype rejection, depth/token limits)")
		}
	}
}
