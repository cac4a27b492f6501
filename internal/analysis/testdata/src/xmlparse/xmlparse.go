// Fixture for the xmlparse analyzer. Loaded by driver_test.go as a
// package under internal/server and under internal/xmlstream: both are
// flagged, because no production package — the tokenizer's own
// included — may import encoding/xml. (Test files may; the loader does
// not analyze them.)
package fixture

import "encoding/xml" // want xmlparse

func decode(data []byte) error {
	var v struct{ XMLName xml.Name }
	return xml.Unmarshal(data, &v)
}
