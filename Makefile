# Developer conveniences; CI runs the same commands
# (.github/workflows/ci.yml).

.PHONY: test bench lint fmt

# perf/ (the benchmark declared by BENCHMARK.json) is a module of its
# own; its tests run every workload's correctness checks at smoke
# scale, ~5 s.
test:
	go build ./...
	go test ./...
	go -C perf vet ./...
	go -C perf test ./...

# The benchmark BENCHMARK.json declares (its command, every workload,
# its run length): the six gated end-to-end metrics per workload, the
# numbers a PR's no-regression check compares against its parent.
bench:
	bash perf/run.sh --workload all --seed 1 --seconds 12 --trace 0

fmt:
	gofmt -l -w .

# Run the architectural-invariant analyzers (the lint/ module) over
# the root module: package layering, block-store encapsulation, error
# wrapping, engine determinism, context discipline. See "Static
# analysis" in README.md.
lint:
	go -C lint vet ./...
	go -C lint test ./...
	go -C lint run ./cmd/qclint -C .. ./...
