//go:build !domPoison

package xmldom

// Release clears the slots it hands back, so a pooled arena pins no
// strings or nodes of the document it served. The domPoison build
// (poison.go) overwrites them with sentinels instead.

func scrubElements(s []Element) { clear(s) }
func scrubTexts(s []Text)       { clear(s) }
func scrubAttrs(s []Attr)       { clear(s) }
func scrubNodes(s []Node)       { clear(s) }
