# Nightly output-contract check (driven by the lint_schema_validate
# ctest): run silo_lint over the repository, then validate the fresh
# silo-lint-v1 JSON and SARIF documents — and every checked-in golden
# — against the schemas in tools/silo-lint/schemas/. The profiler
# format rides along: the silo-prof fixture documents must validate
# against the silo-prof-v1 schema.
#
# Usage:
#   cmake -DLINT=<silo_lint exe> -DROOT=<repo root> -DPY=<python3>
#         -DTOOL_DIR=<tools/silo-lint> -DOUT=<scratch dir>
#         -P validate_outputs.cmake

foreach(var LINT ROOT PY TOOL_DIR OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "validate_outputs.cmake: -D${var}= is required")
    endif()
endforeach()

execute_process(
    COMMAND "${LINT}" --root "${ROOT}"
            "--json=${OUT}/silo-lint.json"
            "--sarif=${OUT}/silo-lint.sarif"
    RESULT_VARIABLE lint_rc)
if(NOT lint_rc EQUAL 0)
    message(FATAL_ERROR "silo_lint self-run failed (rc=${lint_rc}) — "
                        "fix or suppress findings before validating schemas")
endif()

file(GLOB golden_json "${ROOT}/tests/tools/golden/*.json")
file(GLOB golden_sarif "${ROOT}/tests/tools/golden/*.sarif")

execute_process(
    COMMAND "${PY}" "${TOOL_DIR}/check_schema.py"
            "${TOOL_DIR}/schemas/silo-lint-v1.schema.json"
            "${OUT}/silo-lint.json" ${golden_json}
    RESULT_VARIABLE json_rc)
if(NOT json_rc EQUAL 0)
    message(FATAL_ERROR "silo-lint-v1 schema validation failed")
endif()

execute_process(
    COMMAND "${PY}" "${TOOL_DIR}/check_schema.py"
            "${TOOL_DIR}/schemas/sarif-2.1.0-subset.schema.json"
            "${OUT}/silo-lint.sarif" ${golden_sarif}
    RESULT_VARIABLE sarif_rc)
if(NOT sarif_rc EQUAL 0)
    message(FATAL_ERROR "SARIF schema validation failed")
endif()

file(GLOB prof_fixtures "${ROOT}/tests/tools/fixtures/report/prof-*.json")
execute_process(
    COMMAND "${PY}" "${TOOL_DIR}/check_schema.py"
            "${TOOL_DIR}/schemas/silo-prof-v1.schema.json"
            ${prof_fixtures}
    RESULT_VARIABLE prof_rc)
if(NOT prof_rc EQUAL 0)
    message(FATAL_ERROR "silo-prof-v1 schema validation failed")
endif()
