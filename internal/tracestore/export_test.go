package tracestore

// SetHook sets s's filesystem hook (see durable.FS) for the external
// tests in this directory; nil restores the real filesystem.
func SetHook(s *Store, hook func(op, path string) error) { s.fs.Hook = hook }
