# ctest script for perf_gate.py: run the gate on BASELINE against
# FRESH and require exit code RC and output matching the regex EXPECT.
# Invoked by the perf_gate_* tests in tools/CMakeLists.txt.

execute_process(COMMAND "${PY}" "${GATE}" "${BASELINE}" "${FRESH}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
message("${out}${err}")
if(NOT rc EQUAL RC)
    message(FATAL_ERROR "perf_gate exited with ${rc}, expected ${RC}")
endif()
if(NOT out MATCHES "${EXPECT}")
    message(FATAL_ERROR "perf_gate output does not match: ${EXPECT}")
endif()
