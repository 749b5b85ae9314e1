# Runs one bench command for ctest and checks what it printed or wrote.
#
#   cmake -DBIN=<binary> "-DARGS=<arguments>" [-DGOLDEN=<file>]
#         [-DOUT_DIR=<dir> -DEXPECT_FILES=<n>] [-DEXIT=<status>]
#         ["-DJOBS=<n> <n>..."] -P tests/bench_check.cmake
#
# GOLDEN: stdout must equal the file byte for byte.  A mismatch leaves the
# actual stdout in the test's working directory as <golden name>.actual.
# OUT_DIR/EXPECT_FILES: OUT_DIR is emptied before the run, and the run
# must leave exactly EXPECT_FILES files in it.
# EXIT: the status the run must exit with (default 0); a run expected to
# fail must say why in exactly one line on stderr.
# JOBS: the run is repeated once per listed --jobs value, each writing
# --out=jobs-<n>.json in the test's working directory, and every document
# must equal the first byte for byte.
separate_arguments(args UNIX_COMMAND "${ARGS}")
if(NOT DEFINED EXIT)
  set(EXIT 0)
endif()

if(DEFINED JOBS)
  separate_arguments(JOBS UNIX_COMMAND "${JOBS}")
  set(reference "")
  foreach(jobs IN LISTS JOBS)
    set(out "${CMAKE_CURRENT_BINARY_DIR}/jobs-${jobs}.json")
    execute_process(COMMAND "${BIN}" ${args} --jobs=${jobs} --out=${out}
                    OUTPUT_QUIET RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${BIN} ${ARGS} --jobs=${jobs} exited with ${rc}")
    endif()
    if(reference)
      execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                              "${reference}" "${out}" RESULT_VARIABLE differs)
      if(differs)
        message(FATAL_ERROR "${BIN} ${ARGS}: --out at --jobs=${jobs} "
                            "differs from ${reference}")
      endif()
      file(REMOVE "${out}")
    else()
      set(reference "${out}")
    endif()
  endforeach()
  file(REMOVE "${reference}")
  return()
endif()

if(DEFINED OUT_DIR)
  file(REMOVE_RECURSE "${OUT_DIR}")
  file(MAKE_DIRECTORY "${OUT_DIR}")
endif()

if(DEFINED GOLDEN)
  get_filename_component(name "${GOLDEN}" NAME_WE)
  set(actual "${CMAKE_CURRENT_BINARY_DIR}/${name}.actual")
  set(capture OUTPUT_FILE "${actual}")
else()
  set(capture OUTPUT_QUIET)
endif()
if(NOT EXIT EQUAL 0)
  list(APPEND capture ERROR_VARIABLE err)
endif()
execute_process(COMMAND "${BIN}" ${args} ${capture} RESULT_VARIABLE rc)
if(NOT rc EQUAL EXIT)
  message(FATAL_ERROR "${BIN} ${ARGS} exited with ${rc}, expected ${EXIT}")
endif()
if(NOT EXIT EQUAL 0)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines count)
  if(NOT count EQUAL 1 OR NOT err MATCHES "\n$")
    message(FATAL_ERROR "${BIN} ${ARGS} wrote ${count} lines on stderr, "
                        "expected one: ${err}")
  endif()
endif()

if(DEFINED GOLDEN)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${actual}"
                          "${GOLDEN}" RESULT_VARIABLE differs)
  if(differs)
    message(FATAL_ERROR "stdout of ${BIN} ${ARGS} differs from ${GOLDEN}; "
                        "see ${actual}")
  endif()
  file(REMOVE "${actual}")
endif()

if(DEFINED EXPECT_FILES)
  file(GLOB written "${OUT_DIR}/*")
  list(LENGTH written count)
  if(NOT count EQUAL EXPECT_FILES)
    message(FATAL_ERROR "${BIN} ${ARGS} left ${count} files in ${OUT_DIR}, "
                        "expected ${EXPECT_FILES}: ${written}")
  endif()
endif()
