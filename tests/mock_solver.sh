#!/bin/sh
# A deliberately misbehaving "SMT solver" for the process-lifecycle tests
# in tests/ExtSolverTest.cpp. The first argument selects the failure mode;
# SmtLibSolver must survive every one of them by falling back to the
# in-repo bit-blaster without changing any answer.
#
#   eof          exit immediately (binary "crashes" on startup)
#   hang         accept stdin but never reply (reply-timeout path)
#   garbage      reply nonsense to check-sat (protocol-error path)
#   error        reply (error "...") to check-sat
#   always-sat   claim sat for everything, with an empty model — a *lying*
#                solver, which only the crosscheck backend can expose
#   always-unsat claim unsat for everything — lies in the other direction
#
# The script speaks just enough protocol for the handshake: every command
# that is not a check-sat/get-model/exit draws "success" (matching
# :print-success true, which SmtLibSolver always sets first).
#
# When LEAPFROG_MOCK_PIDFILE is set, the script appends its own PID to
# that file on startup — the process-lifecycle tests read it back to
# assert that every killed solver process is really dead (no zombies).

mode="$1"

if [ -n "$LEAPFROG_MOCK_PIDFILE" ]; then
  echo $$ >> "$LEAPFROG_MOCK_PIDFILE"
fi

case "$mode" in
  eof)  exit 0 ;;
  hang) exec sleep 3600 ;;
esac

while IFS= read -r line; do
  case "$line" in
    "(check-sat"*)
      case "$mode" in
        always-sat)   echo "sat" ;;
        always-unsat) echo "unsat" ;;
        error)        echo "(error \"mock solver refuses\")" ;;
        *)            echo "flurble grumble" ;;
      esac ;;
    "(get-model)"*)
      echo "(model)" ;;
    "(exit)"*)
      exit 0 ;;
    *)
      echo "success" ;;
  esac
done
exit 0
