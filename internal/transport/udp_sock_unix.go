//go:build unix

package transport

import "syscall"

// readNB reads one datagram from a non-blocking socket into p. The net
// package sets every socket it opens non-blocking, so an empty socket
// answers EAGAIN.
func readNB(fd uintptr, p []byte) (int, error) { return syscall.Read(int(fd), p) }

// sockRcvBuf reads the socket's SO_RCVBUF back, 0 if it cannot.
func sockRcvBuf(fd uintptr) int {
	n, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	if err != nil {
		return 0
	}
	return n
}

// readable reports whether a datagram is queued on the socket, without
// taking it.
func readable(fd uintptr) bool {
	var b [1]byte
	_, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	return err != syscall.EAGAIN
}
