package library

// KeyMemoCap is the key memo's entry cap.
const KeyMemoCap = keyMemoCap

// KeyMemoLen reports how many keys are memoized.
func KeyMemoLen() int { return keyMemo.Len() }

// ResetKeyMemo forgets every memoized key.
func ResetKeyMemo() { keyMemo.Reset() }
