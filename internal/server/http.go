package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/xpath"
)

// HTTPHandler is the thin JSON facade over the same backend the wire
// protocol serves: health probes for orchestration, stats for operators,
// read-only query endpoints for curl-grade access. Mutations stay on the
// binary protocol. Requests pass the same drain cutoff and tenant-free
// admission as wire ops, and ?timeout= becomes a real context deadline.
//
//	GET /healthz            liveness: 200 while the process serves
//	GET /readyz             readiness: 503 when draining/degraded/stalled
//	GET /stats              full StatsReport
//	GET /query?expr=&timeout=&min_lsn=&max_staleness=
//	GET /value?expr=...     XPath string-value
func (s *Server) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.httpHealthz)
	mux.HandleFunc("GET /readyz", s.httpReadyz)
	mux.HandleFunc("GET /stats", s.httpStats)
	mux.HandleFunc("GET /query", s.httpQuery)
	mux.HandleFunc("GET /value", s.httpValue)
	return mux
}

func httpJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// httpError maps a typed error chain onto an HTTP status plus the same
// stable code set the wire protocol sends.
func httpError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, core.ErrNoSuchNode):
		status = http.StatusNotFound
	case errors.Is(err, core.ErrOverloaded), errors.Is(err, ErrQuotaExceeded):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrDraining), errors.Is(err, replica.ErrTooStale):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	}
	httpJSON(w, status, map[string]any{
		"error": err.Error(),
		"codes": core.ErrCodesOf(err),
	})
}

func (s *Server) httpHealthz(w http.ResponseWriter, r *http.Request) {
	httpJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": s.draining.Load()})
}

func (s *Server) httpReadyz(w http.ResponseWriter, r *http.Request) {
	rep := s.healthReport()
	status := http.StatusOK
	if !rep.Ready {
		status = http.StatusServiceUnavailable
	}
	httpJSON(w, status, rep)
}

func (s *Server) httpStats(w http.ResponseWriter, r *http.Request) {
	httpJSON(w, http.StatusOK, s.statsReport())
}

// httpReadCtx builds the op context and replica gate from query params.
func httpReadCtx(r *http.Request) (context.Context, context.CancelFunc, replica.ReadOptions, error) {
	var gate replica.ReadOptions
	var timeout time.Duration
	q := r.URL.Query()
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, nil, gate, errors.Join(ErrBadRequest, errors.New("bad timeout: "+v))
		}
		timeout = d
	}
	if v := q.Get("min_lsn"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return nil, nil, gate, errors.Join(ErrBadRequest, errors.New("bad min_lsn: "+v))
		}
		gate.MinLSN = n
	}
	if v := q.Get("max_staleness"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return nil, nil, gate, errors.Join(ErrBadRequest, errors.New("bad max_staleness: "+v))
		}
		gate.MaxStaleness = d
	}
	if timeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		return ctx, cancel, gate, nil
	}
	return r.Context(), func() {}, gate, nil
}

func (s *Server) httpQuery(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("expr")
	if expr == "" {
		httpError(w, errors.Join(ErrBadRequest, errors.New("missing expr")))
		return
	}
	ctx, cancel, gate, err := httpReadCtx(r)
	if err != nil {
		httpError(w, err)
		return
	}
	defer cancel()
	if err := s.beginServerOp(); err != nil {
		httpError(w, err)
		return
	}
	defer s.endServerOp()

	type row struct {
		ID  core.NodeID `json:"id"`
		XML string      `json:"xml"`
	}
	rows := []row{}
	err = s.withRead(gate, func(st *core.Store) error {
		ids, err := xpath.QueryIDsCtx(ctx, st, expr)
		if err != nil {
			return errors.Join(ErrBadRequest, err)
		}
		var xml []byte
		for _, id := range ids {
			if xml, err = st.AppendNodeXML(ctx, xml[:0], id); err != nil {
				return err
			}
			rows = append(rows, row{ID: id, XML: string(xml)})
		}
		return nil
	})
	if err != nil {
		httpError(w, err)
		return
	}
	httpJSON(w, http.StatusOK, rows)
}

func (s *Server) httpValue(w http.ResponseWriter, r *http.Request) {
	expr := r.URL.Query().Get("expr")
	if expr == "" {
		httpError(w, errors.Join(ErrBadRequest, errors.New("missing expr")))
		return
	}
	ctx, cancel, gate, err := httpReadCtx(r)
	if err != nil {
		httpError(w, err)
		return
	}
	defer cancel()
	if err := s.beginServerOp(); err != nil {
		httpError(w, err)
		return
	}
	defer s.endServerOp()

	var val string
	err = s.withRead(gate, func(st *core.Store) error {
		var err error
		val, err = xpath.QueryValueCtx(ctx, st, expr)
		return badExpr(err)
	})
	if err != nil {
		httpError(w, err)
		return
	}
	httpJSON(w, http.StatusOK, map[string]string{"value": val})
}
