// Package journal implements cspserved's append-only request log: a
// checksummed, uvarint-framed record of every deterministic /v1/* request
// the server answered, with a digest of the response it gave. The journal
// exists to make the store's reproducibility claim checkable — replay the
// journal against a warm-restarted server (internal/scenario.Replay,
// `cspscen replay`) and every response must normalize to the same bytes.
//
// File layout:
//
//	"CSPJRNL1"                                the 8-byte magic
//	frame(meta JSON)                          provenance header (Meta)
//	frame(record JSON) ...                    one frame per request
//
// where frame(p) = uvarint(len(p)) | p | crc64(p), the CRC computed with
// the ECMA polynomial over the payload bytes only — the same trailer
// discipline as the artifact store's codec. Payloads are JSON rather than
// packed binary: journals are diagnostic artifacts first, and `jq` over an
// extracted payload beats a format document.
//
// The writer appends frames under a mutex and never seeks, so a crash (or
// a SIGKILL mid-write) can only leave a torn *final* frame. The reader is
// correspondingly tolerant: a trailing frame that is incomplete or fails
// its checksum is skipped and reported via Torn/TornErr, while a bad frame
// with more data after it is corruption, not tearing, and fails the read.
package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc64"
	"os"
	"sync"
)

// Magic identifies a journal file; the trailing 1 is the format version.
const Magic = "CSPJRNL1"

// Schema is the version stamped into Meta; bump on any record-shape change
// that old readers would misinterpret.
const Schema = 1

var (
	// ErrCorrupt reports a malformed journal: bad magic, or a damaged
	// frame that is not the final one (tearing can only damage the tail).
	ErrCorrupt = errors.New("journal: corrupt")
	// ErrTorn is the cause recorded in ReadResult.TornErr when the final
	// frame was incomplete; it never fails a read.
	ErrTorn = errors.New("journal: torn final record")
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Meta is the journal's provenance header, written once at creation: which
// server wrote it, with which wire schema and store codec, on which
// toolchain — the stamp that lets a replay refuse a journal recorded
// against an incompatible build.
type Meta struct {
	// Schema is the journal format version (the package constant).
	Schema int `json:"schema"`
	// WireSchema is csp.WireSchema at recording time: the version of the
	// response bodies the digests were computed over.
	WireSchema int `json:"wire_schema"`
	// StoreCodec is the artifact store's codec version at recording time
	// (internal/store.Version), 0 when the server ran storeless.
	StoreCodec uint32 `json:"store_codec"`
	// Go is the recording process's toolchain (runtime.Version()).
	Go string `json:"go"`
	// Start is the recording server's start time, Unix nanoseconds.
	Start int64 `json:"start_unix_ns"`
}

// Record is one journaled request/response exchange. The response itself
// is not retained — only its length and the digest of its normalized body
// — so journals stay proportional to request traffic, not to trace-set
// listings.
type Record struct {
	// Seq numbers records from 1 within one journal file.
	Seq int `json:"seq"`
	// Time is the wall-clock receipt time, Unix nanoseconds. Informational
	// only; replay ignores it.
	Time int64 `json:"unix_ns"`
	// Method and Path identify the endpoint ("POST", "/v1/check").
	Method string `json:"method"`
	Path   string `json:"path"`
	// Status is the HTTP status the server answered with.
	Status int `json:"status"`
	// Request is the raw request body as received.
	Request []byte `json:"request"`
	// RespDigest is hex SHA-256 over Normalize(response body).
	RespDigest string `json:"resp_digest"`
	// RespBytes is the raw (un-normalized) response body length.
	RespBytes int `json:"resp_bytes"`
}

// VolatileKeys are the response-body JSON keys Normalize strips, at any
// nesting depth, before digesting: fields that legitimately differ between
// a recording and a faithful replay. Everything else — verdicts, traces,
// counterexamples, refusals, schema stamps — must reproduce byte-for-byte.
//
//	elapsed_ms  wall-clock timing
//	progress    engine progress snapshots (timing-dependent)
//	cache_hit   whether the module was already resident — a replay against
//	            a warm-booted store answers true where the recording's
//	            first contact answered false, by design
var VolatileKeys = map[string]bool{
	"elapsed_ms": true,
	"progress":   true,
	"cache_hit":  true,
}

// Writer appends frames to one journal file. Safe for concurrent use; the
// file is opened O_APPEND and every frame is written with a single Write
// call, so records from concurrent requests interleave whole, never
// byte-wise.
type Writer struct {
	mu       sync.Mutex
	f        *os.File
	seq      int
	bytes    int64
	path     string
	writeErr error
}

// Create opens a new journal file at path (failing if it exists — journals
// are immutable history, one file per server run) and writes the magic and
// meta header.
func Create(path string, meta Meta) (*Writer, error) {
	meta.Schema = Schema
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, path: path}
	payload, err := json.Marshal(meta)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	buf := append([]byte(Magic), frame(payload)...)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w.bytes = int64(len(buf))
	return w, nil
}

// frame wraps a payload as uvarint(len) | payload | crc64(payload).
func frame(payload []byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint64(buf, crc64.Checksum(payload, crcTable))
}

// Append journals one record, assigning its sequence number. A write error
// is returned, remembered, and repeated by every later Append — a journal
// that lost a record must not pretend to be complete.
func (w *Writer) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.writeErr != nil {
		return w.writeErr
	}
	w.seq++
	rec.Seq = w.seq
	payload, err := json.Marshal(rec)
	if err != nil {
		w.writeErr = err
		return err
	}
	buf := frame(payload)
	if _, err := w.f.Write(buf); err != nil {
		w.writeErr = fmt.Errorf("journal: appending record %d: %w", rec.Seq, err)
		return w.writeErr
	}
	w.bytes += int64(len(buf))
	return nil
}

// Stats reports the writer's cumulative record and byte counts (header
// included), for /metrics.
func (w *Writer) Stats() (records int, bytes int64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq, w.bytes
}

// Path returns the journal file's path.
func (w *Writer) Path() string { return w.path }

// Close flushes and closes the journal file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}

// ReadResult is a decoded journal: the provenance header, every intact
// record in order, and whether a torn final record was skipped.
type ReadResult struct {
	Meta    Meta
	Records []Record
	// Torn reports that the file ended in an incomplete or checksum-failed
	// final frame, which was skipped; TornErr says what was wrong with it.
	// The valid prefix in Records is unaffected.
	Torn    bool
	TornErr error
}

// ReadFile decodes a journal file. Damage confined to the final frame —
// the only damage an append-only writer's crash can cause — is tolerated
// and reported via Torn; anything else (bad magic, a damaged frame with
// complete frames after it) returns an error wrapping ErrCorrupt.
func ReadFile(path string) (*ReadResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Read(data)
}

// Read decodes a journal from bytes; see ReadFile.
func Read(data []byte) (*ReadResult, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := data[len(Magic):]
	res := &ReadResult{}
	first := true
	for len(rest) > 0 {
		payload, remaining, err := readFrame(rest)
		if err != nil {
			// An append-only writer's crash can only truncate, so a damaged
			// frame is tearing exactly when it is the last thing in the
			// file: an incomplete frame sees nothing beyond itself, and a
			// checksum mismatch with zero bytes after the frame is a
			// partially flushed tail. A bad checksum with more frames
			// behind it — or any damage to the meta header — is corruption.
			if first {
				return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
			}
			if len(remaining) > 0 {
				return nil, fmt.Errorf("%w: record %d: %v (%d bytes follow)",
					ErrCorrupt, len(res.Records)+1, err, len(remaining))
			}
			res.Torn = true
			res.TornErr = fmt.Errorf("%w: %v", ErrTorn, err)
			return res, nil
		}
		if first {
			first = false
			if err := json.Unmarshal(payload, &res.Meta); err != nil {
				return nil, fmt.Errorf("%w: decoding meta: %v", ErrCorrupt, err)
			}
			if res.Meta.Schema != Schema {
				return nil, fmt.Errorf("%w: journal schema %d, reader schema %d", ErrCorrupt, res.Meta.Schema, Schema)
			}
			rest = remaining
			continue
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// An intact checksum over an undecodable payload is corruption
			// even at the tail: tearing truncates, it does not rewrite.
			return nil, fmt.Errorf("%w: decoding record %d: %v", ErrCorrupt, len(res.Records)+1, err)
		}
		res.Records = append(res.Records, rec)
		rest = remaining
	}
	if first {
		return nil, fmt.Errorf("%w: missing meta header", ErrCorrupt)
	}
	return res, nil
}

// readFrame decodes one uvarint-framed, CRC-trailed payload from the front
// of data. On a checksum mismatch it still reports the bytes following the
// complete frame, so the caller can tell a partially flushed tail (nothing
// follows) from mid-file corruption (later frames follow).
func readFrame(data []byte) (payload, rest []byte, err error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, nil, errors.New("incomplete frame length")
	}
	if n > uint64(len(data)-used) {
		return nil, nil, fmt.Errorf("frame claims %d payload bytes, %d remain", n, len(data)-used)
	}
	payload = data[used : used+int(n)]
	rest = data[used+int(n):]
	if len(rest) < 8 {
		return nil, nil, errors.New("incomplete frame checksum")
	}
	want := binary.LittleEndian.Uint64(rest[:8])
	if got := crc64.Checksum(payload, crcTable); got != want {
		return payload, rest[8:], fmt.Errorf("frame checksum mismatch (got %016x, want %016x)", got, want)
	}
	return payload, rest[8:], nil
}
