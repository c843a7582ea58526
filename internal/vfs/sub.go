package vfs

// Sub returns a chroot-style view of fs confined to the subtree at root:
// every path given to the view is validated (SplitPath — so "..",
// NUL bytes and oversized paths are rejected before any walk) and
// re-anchored under root. The view cannot name, and therefore cannot
// reach, anything outside the subtree; the multi-tenant server builds one
// per tenant. The root directory must already exist.
//
// The view shares the underlying mount: Sync flushes the whole file
// system, and Unmount is refused (ErrInvalid) — teardown belongs to the
// owner of the real mount, not to a confined view.
func Sub(fs FileSystem, root string) (FileSystem, error) {
	parts, err := SplitPath(nil, root)
	if err != nil {
		return nil, err
	}
	if _, err := fs.Stat(JoinPath(parts)); err != nil {
		return nil, err
	}
	prefix := ""
	if len(parts) > 0 {
		prefix = JoinPath(parts)
	}
	return &subFS{inner: fs, prefix: prefix}, nil
}

type subFS struct {
	inner FileSystem
	// prefix is the canonical root path without trailing slash, "" when
	// the view is rooted at "/".
	prefix string
}

// resolve validates path and re-anchors it under the view's root. All
// escapes are structurally impossible after SplitPath: the surviving
// components contain no "..", no empty names and no separators, so the
// join can only descend. A path that is already canonical is appended to
// the prefix as is, so the common case costs one concatenation.
func (s *subFS) resolve(path string) (string, error) {
	var buf [16]string
	parts, err := SplitPath(buf[:0], path)
	if err != nil {
		return "", err
	}
	if len(parts) == 0 {
		if s.prefix == "" {
			return "/", nil
		}
		return s.prefix, nil
	}
	if isCanonical(path, parts) {
		return s.prefix + path, nil
	}
	return s.prefix + JoinPath(parts), nil
}

func (s *subFS) Create(path string) (File, error) {
	full, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	return s.inner.Create(full)
}

func (s *subFS) Open(path string, flags int) (File, error) {
	full, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	return s.inner.Open(full, flags)
}

func (s *subFS) Mkdir(path string) error {
	full, err := s.resolve(path)
	if err != nil {
		return err
	}
	return s.inner.Mkdir(full)
}

func (s *subFS) Rmdir(path string) error {
	full, err := s.resolve(path)
	if err != nil {
		return err
	}
	return s.inner.Rmdir(full)
}

func (s *subFS) Unlink(path string) error {
	full, err := s.resolve(path)
	if err != nil {
		return err
	}
	return s.inner.Unlink(full)
}

func (s *subFS) Rename(oldpath, newpath string) error {
	oldFull, err := s.resolve(oldpath)
	if err != nil {
		return err
	}
	newFull, err := s.resolve(newpath)
	if err != nil {
		return err
	}
	return s.inner.Rename(oldFull, newFull)
}

func (s *subFS) Stat(path string) (FileInfo, error) {
	full, err := s.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	return s.inner.Stat(full)
}

func (s *subFS) ReadDir(path string) ([]DirEntry, error) {
	full, err := s.resolve(path)
	if err != nil {
		return nil, err
	}
	return s.inner.ReadDir(full)
}

func (s *subFS) Sync() error { return s.inner.Sync() }

// Unmount on a confined view is refused: the view does not own the mount.
func (s *subFS) Unmount() error { return ErrInvalid }
