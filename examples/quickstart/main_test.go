package main

import "testing"

// TestQuickstart runs the example as README's first command does; main
// exits the test binary through log.Fatal if any step fails.
func TestQuickstart(t *testing.T) {
	main()
}
