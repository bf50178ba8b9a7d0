// Package store is the golden fixture for the failpoint-coverage rule's
// internal/store scope: replica and durable-tier I/O must be faultable
// through internal/faultinject just like the persist and cluster seams.
package store

import (
	"os"

	"example.com/fixture/internal/faultinject"
)

// readTierRaw reads a durable-tier entry with no failpoint in the
// function: the anti-entropy and replica-read drills cannot fault it.
func readTierRaw(path string) ([]byte, error) {
	return os.ReadFile(path) // want `os\.ReadFile without a faultinject failpoint in readTierRaw`
}

// readTierGuarded evaluates the read-replica failpoint first: fine.
func readTierGuarded(path string) ([]byte, error) {
	if err := faultinject.Hit("store.read-replica"); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// publishRaw renames a replica copy into place without a failpoint.
func publishRaw(tmp, path string) error {
	return os.Rename(tmp, path) // want `os\.Rename without a faultinject failpoint in publishRaw`
}

// publishGuarded is the instrumented replication seam: fine, including
// the closure — the rule is scoped per declared function.
func publishGuarded(tmp, path string) error {
	if err := faultinject.Hit("store.replicate"); err != nil {
		return err
	}
	publish := func() error { return os.Rename(tmp, path) }
	return publish()
}

// sweepGuarded is the instrumented anti-entropy walk: fine.
func sweepGuarded(paths []string) (n int) {
	if err := faultinject.Hit("store.anti-entropy"); err != nil {
		return 0
	}
	for _, p := range paths {
		if b, err := os.ReadFile(p); err == nil && len(b) > 0 {
			n++
		}
	}
	return n
}
