package obs

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
)

// discard is the single shared drop-everything logger; every layer that
// defaults a nil Logger uses this instead of hand-rolling its own
// handler.
var discard = slog.New(discardHandler{})

// LoggerOr returns l when non-nil and the shared discard logger
// otherwise — the one-line form of "nil Logger disables logging".
func LoggerOr(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return discard
}

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }

// ParseLevel maps a -log-level flag value (debug|info|warn|error, case
// insensitive) to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
}
