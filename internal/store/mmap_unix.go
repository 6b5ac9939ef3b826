//go:build unix

package store

import (
	"os"
	"syscall"
)

// mmapFile maps the first size bytes of f read-only, returning the
// mapped slice and an unmap function. The mapping outlives f's
// descriptor; nothing may touch the slice after unmap.
func mmapFile(f *os.File, size int64) ([]byte, func() error, error) {
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
