// Package simd implements the HTTP simulation service behind cmd/simd:
// a thin request/response frontend over the frontendsim Engine with a
// pluggable response store (pkg/resultstore) keyed on the canonical
// request hash (Thanos query-frontend style: the key identifies the
// response, not the request spelling, so `{"benchmark":"gzip",
// "frontends":2}` and the equivalent fully spelled-out config hit the
// same entry).
//
// The store is injected via NewServerWithStore: a memory store gives
// the original process-local cache (SIEVE eviction), a disk or tiered
// store makes cached results survive restarts, and a store shared
// between replicas (see examples/distributed) lets a surviving backend
// serve a dead peer's keys after ring failover.
package simd
