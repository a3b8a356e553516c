#!/usr/bin/env sh
# Guards the event-driven serving core (DESIGN.md §11): no session socket is
# read outside the reactor's event loop. The core sends; answers, callback
# answers included, come back through on_message. A blocking receive in the
# core would park a worker (or the event thread) on one peer, and
# Reactor::Detach is how a socket would leave the loop to be read that way.
# CI fails on the first call.
set -eu
cd "$(dirname "$0")/.."

files="src/server/session_core.cc src/server/reactor.h src/server/reactor.cc"
if grep -nE '\b(Recv|RecvTimeout|Detach)\(' $files; then
  echo "error: blocking receive or Detach in the serving core — send through" >&2
  echo "the reactor and handle the answer in on_message instead." >&2
  exit 1
fi
echo "serving core never blocks on a peer: OK"
