package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"clockroute/api"
	"clockroute/internal/resultcache"
)

// The result cache sits between the HTTP handlers and the search engine:
// requests are reduced to their canonical problem form (api.Canonicalize),
// hashed, and looked up before any search runs. A hit serves the stored
// answer without touching the kernel; a miss computes, then fills. The
// correctness contract is bit-identity — a cached response is byte-for-byte
// what a fresh search would produce (elapsed_ns timing aside, plus the
// "cached" flag), which holds because routing is deterministic in its
// canonical inputs, because nothing downstream of a contained panic is ever
// stored, and because an entry is the very bytes its miss was written with.

// Cache key domains. /v1/route and /v1/plan answer the same canonical
// problem in two shapes, a whole RouteResponse or one plan net's
// NetResult, so each shape gets its own key domain; an entry's envelope
// byte (below) names the shape it holds, and a lookup that finds the
// other shape counts as a miss. The wire-visible problem_hash stays the
// undomained canonical hash either way.
const (
	cacheDomainRoute byte = 0x00
	cacheDomainNet   byte = 0x5a
)

// Every entry is its answer's bytes: an envelope byte naming the shape,
// then the codec's encoding of the answer as a miss writes it, nameless (a
// net's name belongs to the request, not the problem) and with Cached
// false. The slice is exactly as long as its contents, is never written
// after it is stored, and is its own snapshot payload. A hit serves it
// through api.AppendCached and api.AppendNamed, which splice in the flag
// and the name without decoding or encoding anything.
const (
	envRoute = 'R' // a RouteResponse
	envNet   = 'N' // a NetResult with an empty Name
)

// cacheEntryOverhead is what an entry costs beyond its encoding: the key,
// the boxed slice header, the LRU links and the map slot. Each entry is
// charged its encoding's length (the envelope byte aside) plus this, so
// the byte budget follows what the cache holds.
const cacheEntryOverhead = 128

// cacheKey maps a canonical problem hash into one key domain.
func cacheKey(h api.ProblemHash, domain byte) resultcache.Key {
	k := resultcache.Key(h)
	k[31] ^= domain
	return k
}

// Cache returns the server's result cache, nil when disabled.
func (s *Server) Cache() *resultcache.Cache { return s.cache }

// CachePrometheus returns a writer appending the cache's per-shard and
// windowed-hit-rate series to a Prometheus exposition (nil when the cache
// is disabled) — cmd/routed passes it to telemetry.NewServer as an Extra.
func (s *Server) CachePrometheus() func(io.Writer) {
	if s.cache == nil {
		return nil
	}
	return s.cache.WritePrometheus
}

// cacheMode resolves the effective mode for this request: a disabled
// cache behaves as bypass regardless of what the request asked for.
func (s *Server) cacheMode(opts *api.CacheOptions) string {
	if s.cache == nil {
		return api.CacheModeBypass
	}
	return opts.EffectiveMode()
}

// newEntry encodes an answer once, behind its envelope byte, into an
// exact-length entry, and prices it for the byte budget.
func newEntry[T api.Wire](env byte, v *T) ([]byte, int64, error) {
	b, err := api.MarshalExact([]byte{env}, v)
	if err != nil {
		return nil, 0, err
	}
	return b, int64(len(b)-1) + cacheEntryOverhead, nil
}

// storedAnswer returns the encoding an entry holds when it is an answer of
// shape env; a value of another shape, or none, yields false.
func storedAnswer(v any, env byte) ([]byte, bool) {
	b, ok := v.([]byte)
	if !ok || len(b) == 0 || b[0] != env {
		return nil, false
	}
	return b[1:], true
}

// snapshotEntry renders a live entry for a snapshot segment: as it is.
func snapshotEntry(_ resultcache.Key, v any) ([]byte, bool) {
	b, ok := v.([]byte)
	return b, ok
}

// loadEntry rebuilds an entry from a snapshot payload. The payload is
// decoded once, by its envelope, and the entry is the codec's encoding of
// what decoded, nameless and unflagged as a miss stores it: a hit never
// serves bytes the codec did not write, whatever the segment holds. A
// payload that does not decode is rejected, and the load skips it.
func loadEntry(_ resultcache.Key, payload []byte) (any, int64, error) {
	if len(payload) < 1 {
		return nil, 0, errors.New("server: empty cache envelope")
	}
	switch env, enc := payload[0], payload[1:]; env {
	case envRoute:
		return reencode(env, enc, func(r *api.RouteResponse) { r.Cached = false })
	case envNet:
		return reencode(env, enc, func(n *api.NetResult) { n.Name, n.Cached = "", false })
	}
	return nil, 0, fmt.Errorf("server: unknown cache envelope %q", payload[0])
}

// reencode decodes one payload, clears in it what a miss does not store,
// and encodes it into a new entry.
func reencode[T api.Wire](env byte, enc []byte, reset func(*T)) (any, int64, error) {
	var v T
	if err := api.Unmarshal(enc, &v); err != nil {
		return nil, 0, err
	}
	reset(&v)
	b, size, err := newEntry(env, &v)
	return b, size, err
}

// errCacheUnavailable is reported by the cache admin endpoints when the
// cache or its directory is not configured.
var errCacheUnavailable = errors.New("server: result cache not enabled (start with a cache budget)")

// SnapshotCache appends the cache's current contents as a new segment
// file under the configured cache directory and returns its path.
func (s *Server) SnapshotCache() (path string, entries int, err error) {
	if s.cache == nil {
		return "", 0, errCacheUnavailable
	}
	if s.cfg.CacheDir == "" {
		return "", 0, errors.New("server: no cache directory configured (-cache-dir)")
	}
	return resultcache.SnapshotDir(s.cfg.CacheDir, s.cache, snapshotEntry)
}

// LoadCache replays every snapshot segment under the configured cache
// directory into the cache (a warm start). Missing directories load
// nothing; corrupt segments contribute their readable prefix and surface
// the error.
func (s *Server) LoadCache() (entries int, err error) {
	if s.cache == nil {
		return 0, errCacheUnavailable
	}
	if s.cfg.CacheDir == "" {
		return 0, errors.New("server: no cache directory configured (-cache-dir)")
	}
	return resultcache.LoadDir(s.cfg.CacheDir, s.cache, loadEntry)
}

// handleCacheStats serves GET /v1/cache/stats.
func (s *Server) handleCacheStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{"enabled": s.cache != nil}
	if s.cache != nil {
		st := s.cache.Stats()
		out["entries"] = st.Entries
		out["bytes"] = st.Bytes
		out["max_bytes"] = st.MaxBytes
		out["hits"] = st.Hits
		out["misses"] = st.Misses
		out["evictions"] = st.Evictions
		out["dir"] = s.cfg.CacheDir
		out["shards"] = s.cache.ShardStats()
		rate := 0.0
		if st.WindowHits+st.WindowMisses > 0 {
			rate = float64(st.WindowHits) / float64(st.WindowHits+st.WindowMisses)
		}
		out["window"] = map[string]any{
			"hits":     st.WindowHits,
			"misses":   st.WindowMisses,
			"hit_rate": rate,
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCacheSnapshot serves POST /v1/cache/snapshot.
func (s *Server) handleCacheSnapshot(w http.ResponseWriter, r *http.Request) {
	path, entries, err := s.SnapshotCache()
	if err != nil {
		s.writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"file": path, "entries": entries})
}

// handleCacheLoad serves POST /v1/cache/load.
func (s *Server) handleCacheLoad(w http.ResponseWriter, r *http.Request) {
	entries, err := s.LoadCache()
	if err != nil {
		status := http.StatusConflict
		if errors.Is(err, resultcache.ErrCorruptSegment) {
			// Partial loads still warmed the cache; report what loaded.
			writeJSON(w, http.StatusOK, map[string]any{"entries": entries, "warning": err.Error()})
			return
		}
		s.writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"entries": entries})
}

// cachedRoute returns the encoding of a cached /v1/route answer.
func (s *Server) cachedRoute(h api.ProblemHash) ([]byte, bool) {
	v, _ := s.cache.Get(cacheKey(h, cacheDomainRoute))
	return storedAnswer(v, envRoute)
}

// cachedNet returns the nameless encoding of a cached plan net.
func (s *Server) cachedNet(h api.ProblemHash) ([]byte, bool) {
	v, _ := s.cache.Get(cacheKey(h, cacheDomainNet))
	return storedAnswer(v, envNet)
}
