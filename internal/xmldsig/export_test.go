package xmldsig

import "time"

// ChainMemoCap is the chain memo's entry cap.
const ChainMemoCap = chainMemoCap

// ChainMemoLen reports how many chain validations are memoized.
func ChainMemoLen() int { return chainMemo.Len() }

// ResetChainMemo forgets every memoized chain validation.
func ResetChainMemo() { chainMemo.Reset() }

// SetClock runs chain validation at the instants f returns until the
// returned function restores the real clock.
func SetClock(f func() time.Time) (restore func()) {
	now = f
	return func() { now = time.Now }
}
