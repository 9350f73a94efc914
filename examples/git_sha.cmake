# Build-time provenance: writes the `git_sha` of a `sttram_cli --metrics`
# file into the header OUTPUT.
#
#   cmake -DSOURCE_DIR=<tree> -DOUTPUT=<header> -P git_sha.cmake
#
# The value is `git rev-parse --short HEAD` of SOURCE_DIR, with "-dirty"
# appended when `git diff --quiet HEAD --` finds tracked files that
# differ from HEAD, and "unknown" outside a git checkout.  OUTPUT is
# rewritten only when the value changes, so an unchanged tree rebuilds
# nothing.
set(sha "unknown")
find_program(STTRAM_GIT git)
if(STTRAM_GIT)
  execute_process(
    COMMAND "${STTRAM_GIT}" rev-parse --short HEAD
    WORKING_DIRECTORY "${SOURCE_DIR}"
    RESULT_VARIABLE head_status
    OUTPUT_VARIABLE head
    OUTPUT_STRIP_TRAILING_WHITESPACE
    ERROR_QUIET)
  if(head_status EQUAL 0 AND head)
    set(sha "${head}")
    execute_process(
      COMMAND "${STTRAM_GIT}" diff --quiet HEAD --
      WORKING_DIRECTORY "${SOURCE_DIR}"
      RESULT_VARIABLE diff_status
      ERROR_QUIET)
    if(diff_status EQUAL 1)
      string(APPEND sha "-dirty")
    endif()
  endif()
endif()

set(content "#define STTRAM_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
