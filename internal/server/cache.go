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
// response without touching the kernel; a miss computes, then fills. The
// correctness contract is bit-identity — a cached response is byte-for-byte
// what a fresh search would produce (elapsed_ns timing aside), which holds
// because routing is deterministic in its canonical inputs and because
// nothing downstream of a contained panic is ever stored.

// Cache key domains. /v1/route caches whole RouteResponses while /v1/plan
// caches per-net NetResults; the same canonical problem backs both, but
// the stored shapes differ, so each response shape gets its own key
// domain. The wire-visible problem_hash stays the undomained canonical
// hash either way.
const (
	cacheDomainRoute byte = 0x00
	cacheDomainNet   byte = 0x5a
)

// cacheEntryOverhead is added to each entry's JSON size to account for the
// key, LRU links, and map slot, keeping the byte budget honest.
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

// approxEntrySize prices a response for the byte budget: its JSON size
// plus fixed bookkeeping overhead. The JSON rendering is also how the
// entry is persisted, so the two accountings agree.
func approxEntrySize[T api.Wire](v *T) (int64, error) {
	b, err := api.AppendJSON(nil, v)
	if err != nil {
		return 0, err
	}
	return int64(len(b)) + cacheEntryOverhead, nil
}

// Snapshot envelope types, the first byte of each persisted payload.
const (
	envRoute = 'R' // *api.RouteResponse
	envNet   = 'N' // api.NetResult
)

// encodeCacheEntry renders one live entry for a snapshot segment.
func encodeCacheEntry(_ resultcache.Key, v any) ([]byte, bool) {
	var b []byte
	var err error
	switch r := v.(type) {
	case *api.RouteResponse:
		b, err = api.AppendJSON([]byte{envRoute}, r)
	case api.NetResult:
		b, err = api.AppendJSON([]byte{envNet}, &r)
	default:
		return nil, false
	}
	return b, err == nil
}

// decodeCacheEntry rebuilds a live entry from a snapshot payload.
func decodeCacheEntry(_ resultcache.Key, payload []byte) (any, int64, error) {
	if len(payload) < 1 {
		return nil, 0, errors.New("server: empty cache envelope")
	}
	switch payload[0] {
	case envRoute:
		var r api.RouteResponse
		if err := api.Unmarshal(payload[1:], &r); err != nil {
			return nil, 0, err
		}
		return &r, int64(len(payload)-1) + cacheEntryOverhead, nil
	case envNet:
		var n api.NetResult
		if err := api.Unmarshal(payload[1:], &n); err != nil {
			return nil, 0, err
		}
		return n, int64(len(payload)-1) + cacheEntryOverhead, nil
	}
	return nil, 0, fmt.Errorf("server: unknown cache envelope %q", payload[0])
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
	return resultcache.SnapshotDir(s.cfg.CacheDir, s.cache, encodeCacheEntry)
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
	return resultcache.LoadDir(s.cfg.CacheDir, s.cache, decodeCacheEntry)
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

// cachedRouteResponse fetches and adapts a cached /v1/route response: a
// shallow copy flagged Cached (path/gate slices are shared read-only with
// the stored entry). A stored value of the wrong shape counts as a miss.
// Absence is counted by the Do call that follows, not here.
func (s *Server) cachedRouteResponse(h api.ProblemHash) (*api.RouteResponse, bool) {
	v, ok := s.cache.Peek(cacheKey(h, cacheDomainRoute))
	if !ok {
		return nil, false
	}
	stored, ok := v.(*api.RouteResponse)
	if !ok {
		return nil, false
	}
	resp := *stored
	resp.Cached = true
	return &resp, true
}

// cachedNetResult fetches and adapts a cached per-net result, restoring
// the request's net name (names are not part of the canonical problem).
func (s *Server) cachedNetResult(h api.ProblemHash, name string) (api.NetResult, bool) {
	v, ok := s.cache.Get(cacheKey(h, cacheDomainNet))
	if !ok {
		return api.NetResult{}, false
	}
	stored, ok := v.(api.NetResult)
	if !ok {
		return api.NetResult{}, false
	}
	stored.Name = name
	stored.Cached = true
	return stored, true
}

// fillNetResult stores one freshly routed net. The entry is stored
// nameless and unflagged so a hit reproduces exactly what a fresh route
// of that problem yields.
func (s *Server) fillNetResult(h api.ProblemHash, nr api.NetResult) {
	nr.Name = ""
	nr.Cached = false
	size, err := approxEntrySize(&nr)
	if err != nil {
		return
	}
	s.cache.Put(cacheKey(h, cacheDomainNet), nr, size)
}
