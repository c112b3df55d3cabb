# Developer entry points. Everything here is plain `go` — the Makefile
# only names the invocations CI and the docs refer to.

GO ?= go

.PHONY: build test vet bench

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The full human-readable benchmark sweep (slow).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
