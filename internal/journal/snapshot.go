package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// writeSnapshotFile writes snap-<seq>.snap atomically: JSON header line +
// binary body into a temp file, fsync, rename, directory sync. A crash at
// any point leaves either no snapshot or a complete one — never a partial
// file under the final name.
func writeSnapshotFile(dir string, seq uint64, hdr SnapshotHeader, body []byte) error {
	hdr.Format = snapshotFormat
	hdr.Version = snapshotVersion
	hdr.Seq = seq
	hdr.BodyLen = int64(len(body))
	hdr.BodyCRC32C = crc32.Checksum(body, castagnoli)
	hb, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("journal: snapshot header: %w", err)
	}

	tmp := filepath.Join(dir, snapshotName(seq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer os.Remove(tmp) // no-op after a successful rename
	w := bufio.NewWriter(f)
	if _, err := w.Write(append(hb, '\n')); err == nil {
		_, err = w.Write(body)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("journal: writing snapshot %d: %w", seq, err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName(seq))); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return syncDir(dir)
}

// loadSnapshot reads and verifies one snapshot file: header parse, format
// and version check, body length and CRC-32C.
func loadSnapshot(path string) (*SnapshotHeader, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, nil, fmt.Errorf("%w: snapshot %s has no header line", ErrCorrupt, filepath.Base(path))
	}
	var hdr SnapshotHeader
	if err := json.Unmarshal(raw[:nl], &hdr); err != nil {
		return nil, nil, fmt.Errorf("%w: snapshot %s header: %v", ErrCorrupt, filepath.Base(path), err)
	}
	if hdr.Format != snapshotFormat {
		return nil, nil, fmt.Errorf("%w: snapshot %s has format %q, want %q", ErrCorrupt, filepath.Base(path), hdr.Format, snapshotFormat)
	}
	if hdr.Version != snapshotVersion {
		return nil, nil, fmt.Errorf("%w: snapshot %s has version %d, this build reads %d", ErrCorrupt, filepath.Base(path), hdr.Version, snapshotVersion)
	}
	body := raw[nl+1:]
	if int64(len(body)) != hdr.BodyLen {
		return nil, nil, fmt.Errorf("%w: snapshot %s body is %d bytes, header says %d", ErrCorrupt, filepath.Base(path), len(body), hdr.BodyLen)
	}
	if got := crc32.Checksum(body, castagnoli); got != hdr.BodyCRC32C {
		return nil, nil, fmt.Errorf("%w: snapshot %s body CRC %08x, header says %08x", ErrCorrupt, filepath.Base(path), got, hdr.BodyCRC32C)
	}
	return &hdr, body, nil
}
