package cluster

import (
	"strings"
	"testing"
)

// TestRefusedFillStillServes: a filled record the store refuses at
// admission is not an error, so the open that filled it still serves
// it; only a record lagging the announced epoch fails the open.
func TestRefusedFillStillServes(t *testing.T) {
	e := NewEdge("edge-0", "http://self.invalid", "http://origin.invalid")
	// A record read once is more frequent than a key never read, and a
	// record bigger than the store displaces every resident one, so it
	// is refused.
	hot := Record{Key: strings.Repeat("a", 64), Signatures: 1}
	if !e.storeRecord(nil, hot) {
		t.Fatal("a small record refused by an empty store")
	}
	e.records.Get(hot.Key)
	big := Record{Key: strings.Repeat("b", 64), Signer: strings.Repeat("s", recordBudget), Signatures: 1}
	if err := e.adopt(nil, big.Key, big); err != nil {
		t.Fatalf("adopting a record refused at admission: %v", err)
	}
	if _, ok := e.records.Peek(big.Key); ok {
		t.Fatal("a record bigger than the store displaced a more frequent one")
	}
	if _, ok := e.records.Peek(hot.Key); !ok {
		t.Fatal("the resident record was evicted by a refused one")
	}

	e.epoch.Store(2)
	lagging := Record{Key: strings.Repeat("c", 64), Epoch: 1, Signatures: 1}
	if err := e.adopt(nil, lagging.Key, lagging); err == nil {
		t.Fatal("a fill lagging the announced epoch was adopted")
	}
}
