//go:build !linux

package journal

import (
	"errors"
	"os"
)

// allocateSpace: preallocation is Linux-only; elsewhere a segment grows by
// plain appends.
func allocateSpace(*os.File, int64, int64) error { return errors.ErrUnsupported }

// datasync is a full fsync where fdatasync is not available.
func datasync(f *os.File) error { return f.Sync() }
