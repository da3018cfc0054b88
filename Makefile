# Convenience targets; everything is plain `go` underneath.

.PHONY: all check build test test-short race bench perfbench-check figures examples vet fmt fmt-check

all: check

check: fmt-check build vet test perfbench-check

build:
	go build ./...

vet:
	go vet ./...

fmt:
	gofmt -w .

# Fails, listing the offenders, when any Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	go test ./...

# perfbench is a nested module, so the root ./... patterns skip it.
perfbench-check:
	cd perfbench && go vet . && go test .

test-short:
	go test -short ./...

race:
	go test -race ./...

bench:
	go test -bench=. -benchmem -run XXX ./...

# Regenerate every table and figure of the paper (DESIGN.md maps them).
figures:
	go run ./cmd/scbench all

examples:
	go run ./examples/quickstart
	go run ./examples/patterns
	go run ./examples/silica
	go run ./examples/scaling
