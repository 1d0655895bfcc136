//go:build !unix

package transport

import "errors"

// readNB: the owner receives with read(2) on a non-blocking socket,
// which only Unix systems offer; elsewhere a UDP transport sends but
// never receives.
func readNB(fd uintptr, p []byte) (int, error) { return 0, errors.ErrUnsupported }

// sockRcvBuf is 0: the receive buffer is not read back here.
func sockRcvBuf(fd uintptr) int { return 0 }

// readable is false: nothing is ever received here.
func readable(fd uintptr) bool { return false }
