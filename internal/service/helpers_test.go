package service

// Crash simulates kill -9 for recovery drills and tests: the journal fd is
// closed without flush or fsync and every goroutine is torn down with no
// terminal journaling — exactly the state a killed process leaves behind.
// The in-memory registry is NOT trustworthy afterwards; a new Server on the
// same journal path is the way to observe the outcome.
func (s *Server) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.pending = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.journal.crash() // before cancel: post-crash appends must not land
	s.cancel()
	s.wg.Wait()
}

func (j *journal) crash() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return
	}
	j.closed = true
	_ = j.f.Close() // no flush, no fsync: what SIGKILL leaves behind
}
