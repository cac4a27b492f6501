package library

// KeyMemoCap is the key memo's entry cap.
const KeyMemoCap = keyMemoCap

// KeyMemoLen reports how many keys are memoized.
func KeyMemoLen() int { return keyMemo.Len() }

// ResetKeyMemo forgets every memoized key.
func ResetKeyMemo() { keyMemo.Reset() }

// SignerTables reports how many signers have a trust epoch, how many
// binding names are indexed, and the most fingerprints one name maps
// to.
func (l *Library) SignerTables() (epochs, names, maxFingerprints int) {
	l.signerMu.Lock()
	defer l.signerMu.Unlock()
	for _, fps := range l.signerIndex {
		maxFingerprints = max(maxFingerprints, len(fps))
	}
	return l.signerEpochs.Len(), len(l.signerIndex), maxFingerprints
}
