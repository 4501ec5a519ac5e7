# Writes the source revision into a C++ header, at build time:
#
#   cmake -DSOURCE_DIR=<a directory of the checkout> -DOUTPUT=<header>
#         -P git_rev.cmake
#
# The revision is the short hash of HEAD, with "-dirty" appended when a
# tracked file differs from HEAD (untracked files do not count, as with
# `git describe --dirty`), or "unknown" outside a git checkout. The header
# is rewritten only when its text changes, so a build at an unchanged
# revision recompiles nothing.
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY "${SOURCE_DIR}"
  RESULT_VARIABLE failed
  OUTPUT_VARIABLE rev
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(failed OR NOT rev)
  set(rev "unknown")
else()
  # --no-optional-locks: a build must not write the index a concurrent
  # git command may hold.
  execute_process(
    COMMAND git --no-optional-locks status --porcelain --untracked-files=no
    WORKING_DIRECTORY "${SOURCE_DIR}"
    OUTPUT_VARIABLE changes
    ERROR_QUIET)
  if(changes)
    string(APPEND rev "-dirty")
  endif()
endif()

set(text "// Generated at build time by src/trace/git_rev.cmake.\n#pragma once\n#define RRFD_GIT_REV \"${rev}\"\n")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL text)
  file(WRITE "${OUTPUT}" "${text}")
endif()
