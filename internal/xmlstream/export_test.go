package xmlstream

// OracleParse exposes the reference tokenizer to this package's
// external tests, which derive reference cache keys through it.
var OracleParse = oracleParse
