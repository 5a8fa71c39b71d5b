package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer is the open loop's blocking wait. time.Sleep will not do: on a
// process whose Ps are all idle the runtime waits in epoll with a
// millisecond timeout, so a 250 µs sleep returns after ~1.1 ms and a
// 2,000/s schedule runs a millisecond late on every broadcast. A timerfd
// read parks the goroutine in the netpoller like a socket read, and the
// kernel's high-resolution timer wakes it (~15–50 µs late on this class
// of machine) without holding a P or spinning.
type pacer struct {
	fd uintptr  // for timerfd_settime; File.Fd would switch the fd to blocking mode
	f  *os.File // the same descriptor, registered with the netpoller
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800   // O_NONBLOCK: lets os.NewFile hand the fd to the netpoller
	tfdCloexec     = 0x80000 // O_CLOEXEC
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// sleep blocks for d.
func (p *pacer) sleep(d time.Duration) error {
	if d <= 0 {
		return nil
	}
	// struct itimerspec{it_interval, it_value}: one shot after d.
	spec := [4]int64{2: int64(d / time.Second), 3: int64(d % time.Second)}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { _ = p.f.Close() } // nothing is buffered in a timerfd
