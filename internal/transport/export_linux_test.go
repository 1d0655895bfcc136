//go:build linux && (amd64 || arm64)

package transport

// CountReceives and Staged open the owner's receive count and leftover
// to the package's external tests, which drive a UDP from internal/core.
var CountReceives = countReceives

// Staged reports how many frames the leftover holds. Owner only.
func Staged(u *UDP) int { return len(u.rx) - u.rxHead }
