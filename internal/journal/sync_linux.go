package journal

import (
	"os"
	"syscall"
)

// allocateSpace reserves [off, off+n) of f with fallocate mode 0: the blocks
// are allocated and the file size covers them, so a record later written
// there changes no metadata its sync would have to commit. A filesystem
// without fallocate answers EOPNOTSUPP or ENOTSUP (errors.ErrUnsupported).
func allocateSpace(f *os.File, off, n int64) error {
	return control(f, "fallocate", func(fd int) error { return syscall.Fallocate(fd, 0, off, n) })
}

// datasync is fdatasync: the written data plus the metadata needed to read
// it back — with the space preallocated, nothing but the data and the
// device flush.
func datasync(f *os.File) error {
	return control(f, "fdatasync", syscall.Fdatasync)
}

// control runs call on f's descriptor, retrying EINTR. The descriptor stays
// referenced for the call, so a concurrent Close cannot hand its number to
// another file under it.
func control(f *os.File, name string, call func(fd int) error) error {
	rc, err := f.SyscallConn()
	if err != nil {
		return err
	}
	var cerr error
	if err := rc.Control(func(fd uintptr) {
		for {
			if cerr = call(int(fd)); cerr != syscall.EINTR {
				return
			}
		}
	}); err != nil {
		return err
	}
	if cerr != nil {
		return os.NewSyscallError(name, cerr)
	}
	return nil
}
