// Package xcol implements the columnar block trace container the
// campaign pipeline streams through. Where package xcal stores one
// 64-byte frame per SlotKPI record, xcol transposes fixed-capacity
// batches of records into per-column encodings — frame-of-reference
// bit packing for bounded counters, delta run-length encoding for the
// slowly-moving scheduler fields, raw little-endian for high-entropy
// radio floats — so a scan touches only the bytes of the columns it
// projects.
//
// Container layout:
//
//	magic "XCOL5GMB" | version u16 | blocks... | index block | tail
//
// Every block is [kind u8][count u32][payloadLen u32][crc32c u32]
// followed by the payload. The first block is the verbatim JSON trace
// metadata (kind meta); KPI blocks hold up to BlockCap records in
// columnar form; aux blocks carry the row-format signaling frames
// (MIB/SIB1/DCI/Event) verbatim, each tagged with its position in the
// KPI stream so a row↔columnar conversion re-interleaves the frames
// byte-identically. The file ends with an index block (one fixed-size
// entry per preceding block) and a fixed 24-byte tail locating it, so
// readers seek straight to any block; when the tail or index is
// damaged the Scanner degrades to a sequential walk of the block
// headers.
//
// Integrity and recovery: every payload carries a CRC32-C. A block
// that fails its CRC, fails to decode, or is cut off by truncation is
// skipped and recorded as a BlockError — scans never panic on corrupt
// input and never silently drop data.
//
// Memory: the Writer buffers exactly one block of records plus one
// encode buffer (O(BlockCap), independent of trace length); the
// Scanner decodes into a Block it owns and reuses, following the
// preallocated-decode idiom of xcal.Reader — the returned Block is
// valid only until the next call.
package xcol

import (
	"fmt"
	"hash/crc32"
)

// Magic identifies a columnar trace file; the row container uses
// "XCAL5GMB".
var Magic = [8]byte{'X', 'C', 'O', 'L', '5', 'G', 'M', 'B'}

// tailMagic terminates a well-formed file, directly after the tail's
// index pointer.
var tailMagic = [8]byte{'X', 'C', 'O', 'L', 'I', 'D', 'X', '1'}

// Version is the current format version.
const Version uint16 = 1

const (
	// BlockCap is the number of KPI records per full block. One block
	// of 22 columns decodes into ~300 KB of column storage — small
	// enough that a bounded scan window stays cache-friendly, large
	// enough that per-block overhead (header, index entry, CRC) is
	// noise.
	BlockCap = 2048

	// headerSize is the fixed per-block header:
	// [kind u8][count u32][payloadLen u32][crc u32].
	headerSize = 13
	// fileHeaderSize is magic + version.
	fileHeaderSize = 10
	// tailSize is [indexOff u64][indexLen u32][indexCRC u32][tailMagic].
	tailSize = 24

	// Decode-side hard limits; anything larger is corruption.
	maxBlockRecords = 1 << 16
	maxBlockBytes   = 1 << 24

	// auxFlushBytes bounds the Writer's signaling-frame buffer.
	auxFlushBytes = 1 << 16
)

// Block kinds.
const (
	kindMeta  uint8 = 1
	kindKPI   uint8 = 2
	kindAux   uint8 = 3
	kindIndex uint8 = 4
)

// Column identifiers, in canonical (file) order. They mirror the
// fields of xcal.SlotKPI.
const (
	ColSlot = iota
	ColTime
	ColCarrier
	ColRAT
	ColDir
	ColCQI
	ColMCSTable
	ColMCS
	ColRank
	ColHARQRetx
	ColACK
	ColOutage
	ColRBs
	ColServingCell
	ColREs
	ColTBSBits
	ColDeliveredBits
	ColSINRdB
	ColRSRPdBm
	ColRSRQdB
	ColPosX
	ColPosY

	numColumns
)

// ColumnSet selects the columns a scan decodes; zero means all.
type ColumnSet uint32

// AllColumns selects every column.
const AllColumns ColumnSet = 1<<numColumns - 1

// GoodputColumns is the projection the throughput/figure path reads:
// enough to rebuild the per-slot goodput and PCell scheduling series.
// Slot (not Time) carries the time axis — it is the canonical slot
// index the series are keyed by and packs ~3x narrower.
const GoodputColumns ColumnSet = 1<<ColSlot | 1<<ColCarrier | 1<<ColRAT |
	1<<ColDir | 1<<ColMCS | 1<<ColRank | 1<<ColRBs | 1<<ColDeliveredBits

// Has reports whether column id is selected.
func (c ColumnSet) Has(id int) bool {
	if c == 0 {
		return true
	}
	return c&(1<<id) != 0
}

// Column encodings. Values are part of the on-disk format.
const (
	encConst    uint8 = 0 // one value, all rows equal
	encRaw      uint8 = 1 // fixed-width little-endian values
	encBits     uint8 = 2 // bools, LSB-first bit-packed
	encDelta    uint8 = 3 // zigzag-varint first value, then deltas (decode only)
	encDeltaRLE uint8 = 4 // zigzag-varint first value, then (delta, run) pairs
	encXorRLE   uint8 = 5 // float32 bits: varint first, then (xor, run) pairs (decode only)
	encPacked   uint8 = 6 // frame-of-reference: base + fixed-bit-width packed offsets
	// encPackedScale divides the offsets by their GCD before packing:
	// base + scale × packed. Physical KPIs are products of a counter and
	// a unit (bits = RBs × bits-per-RB, time = slot × slot duration), so
	// factoring the unit out collapses the bit width.
	encPackedScale uint8 = 7
)

// castagnoli is the CRC32-C table every payload checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// IndexEntry describes one block in the footer index.
type IndexEntry struct {
	// Kind is the block kind (meta, KPI, aux).
	Kind uint8
	// Offset is the file offset of the block header.
	Offset uint64
	// Len is the payload length in bytes.
	Len uint32
	// Count is the number of KPI records (KPI blocks) or sub-frames
	// (aux blocks) in the payload.
	Count uint32
	// First is the absolute index of the block's first KPI record, or
	// for aux blocks the KPI position of the first sub-frame.
	First uint64
	// FirstSlot is the first record's Slot (KPI blocks only).
	FirstSlot int64
	// CRC is the payload CRC32-C, duplicated from the block header so
	// an indexed reader can detect rot without touching the block.
	CRC uint32
}

// indexEntrySize is the fixed encoded size of an IndexEntry.
const indexEntrySize = 1 + 8 + 4 + 4 + 8 + 8 + 4

// BlockError is the provenance of one skipped block: where it was,
// what it claimed to be, and why it was rejected.
type BlockError struct {
	// Offset is the file offset of the block header (or of the bytes
	// that failed to parse as one).
	Offset uint64
	// Kind is the block kind from the header, 0 when unknown.
	Kind uint8
	// Index is the block ordinal in file order, -1 when unknown.
	Index int
	// Err is the reason the block was skipped.
	Err error
}

func (e BlockError) Error() string {
	return fmt.Sprintf("xcol: block %d at offset %d (kind %d): %v", e.Index, e.Offset, e.Kind, e.Err)
}

// Unwrap exposes the underlying cause.
func (e BlockError) Unwrap() error { return e.Err }
