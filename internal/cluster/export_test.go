package cluster

// RecordBudget is the byte budget of an edge's record store.
const RecordBudget = recordBudget

// RecordCharge is what one record is charged against RecordBudget.
func RecordCharge(rd Record) int64 { return recordCharge(rd) }

// RecordBytes reports the edge's charged record bytes.
func (e *Edge) RecordBytes() int64 { return e.records.Bytes() }
