// Package server implements frazd, the long-running compression service
// over the public fraz package: raw fields up, tuned (tune→seal→archive)
// server-side against a fixed-ratio or quality objective, archives and
// multi-field datasets shelved and served back, decompress-with-verify.
// docs/http-api.md is the reference for endpoints, X-Fraz-* headers (or
// query parameters of the same lowercase names), statuses and metrics.
//
// # The request path
//
// Every API request takes one path, written once (server.go):
//
//	route table → serve → handler → error map
//
// The route table says, per endpoint, its metrics label, the methods it
// serves and whether a request is admitted work. serve owns what follows
// from that: 405 with Allow; for admitted work the drain check (503) and
// the tenant and queue seats (429), refused at once rather than queued
// unboundedly; the deadline (Config.RequestTimeout) on the request's
// context, which cancels a tune mid-search, and on reads of its body, so a
// stalled upload ends when a stalled tune would; request.work, the wait for
// one of the Config.Concurrency worker slots that bound CPU work, which a
// handler calls once its body is in memory; the one count in
// frazd_requests_total; and the write. A handler only parses, reads exactly
// the bytes the shape fixes, calls the public package and returns a response
// or an error; errorResponse is the one place an error becomes a status and
// a JSON body, and describe the one writer of X-Fraz-* response headers.
// /healthz, /readyz (drain-aware) and /metrics stand beside the table,
// neither admitted nor counted.
//
// # The shared evaluation-cache tier
//
// All requests tune through one size-bounded fraz.EvalCache keyed by data
// fingerprint: a request re-tuning a field the server has seen — any
// tenant, any connection — is answered from memory instead of re-running
// the compressor. /metrics exports its hit/miss/eviction counters alongside
// queue depth, tunes in flight, bytes sealed, and per-codec seal-latency
// histograms in Prometheus text format, all rendered from one table.
package server
