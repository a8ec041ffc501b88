package replication

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// KAudit OpID values: the two phases of one audit epoch.
const (
	// AuditMark fixes an audit epoch for Envelope.Group at the mark's own
	// delivery position; the epoch is identified by that sequence number.
	AuditMark uint32 = 0
	// AuditReport carries one member's AuditRecord for the epoch in
	// Envelope.XferID; Envelope.Node is the reporting member.
	AuditReport uint32 = 1
)

// AuditRecord is one replica's digest of its state at an audit mark's
// agreed position in the total order. Because every member evaluates the
// mark at the same logical point (their serial dispatchers run the digest
// exactly between the invocations ordered around it), the records of one
// epoch are directly comparable: for active groups, any digest mismatch
// is real divergence.
type AuditRecord struct {
	// Epoch is the audit mark's delivery sequence number.
	Epoch uint64
	// Digest is DigestState over the canonically encoded state.
	Digest uint32
}

// auditRecordLen is an encoded record's length: Epoch in eight bytes,
// Digest in four.
const auditRecordLen = 12

// Encode serializes the record canonically (fixed field order, big-endian:
// the layout DecodeAuditRecord takes) so encoded records — like the digests
// they carry — are byte-identical across replicas.
func (a *AuditRecord) Encode() []byte {
	be := binary.BigEndian
	return be.AppendUint32(be.AppendUint64(make([]byte, 0, auditRecordLen), a.Epoch), a.Digest)
}

// DecodeAuditRecord parses an encoded audit record: exactly 12 bytes, Epoch
// in eight and Digest in four. Any other length, trailing bytes included,
// is not a record.
func DecodeAuditRecord(buf []byte) (*AuditRecord, error) {
	if len(buf) != auditRecordLen {
		return nil, fmt.Errorf("%w: audit record not %d bytes", ErrBadEnvelope, auditRecordLen)
	}
	be := binary.BigEndian
	return &AuditRecord{Epoch: be.Uint64(buf), Digest: be.Uint32(buf[8:])}, nil
}

// auditTable is the CRC-32C (Castagnoli) table the audit digests use.
var auditTable = crc32.MakeTable(crc32.Castagnoli)

// DigestState computes the audit digest over a replica's canonically
// encoded state: the application-level get_state output plus the
// infrastructure-level duplicate filter (EncodeFilterState, which sorts
// its map canonically). Each section is length-framed before hashing so
// shifting bytes between sections cannot produce the same digest.
func DigestState(appState, filterState []byte) uint32 {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(appState)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(filterState)))
	crc := crc32.Update(0, auditTable, hdr[:])
	crc = crc32.Update(crc, auditTable, appState)
	return crc32.Update(crc, auditTable, filterState)
}
