// Package gocap exercises goroutine-capture's conn rule: goroutines
// must not share a raw connection with their spawner.
package gocap

import (
	"net"
	"sync"
)

// session bundles a conn with the mutex that guards writes — the
// synchronized shape the check accepts.
type session struct {
	mu   sync.Mutex
	conn net.Conn
}

// bare holds a conn with no synchronization of its own.
type bare struct {
	conn net.Conn
}

// Leak spawns a goroutine that shares conn with the caller.
func Leak(conn net.Conn, b []byte) {
	go func() {
		_, _ = conn.Write(b) // want goroutine-capture
	}()
	_, _ = conn.Write(b)
}

// LeakHolder captures an unsynchronized conn holder.
func LeakHolder(h *bare, b []byte) {
	go func() {
		_, _ = h.conn.Write(b) // want goroutine-capture
	}()
}

// Handoff transfers the conn as a call argument: ownership moves to
// the goroutine, allowed.
func Handoff(conn net.Conn, b []byte) {
	go write(conn, b)
}

func write(conn net.Conn, b []byte) {
	_, _ = conn.Write(b)
}

// Synchronized captures a session whose conn access is mutex-guarded:
// allowed.
func Synchronized(s *session, b []byte) {
	go func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		_, _ = s.conn.Write(b)
	}()
}
