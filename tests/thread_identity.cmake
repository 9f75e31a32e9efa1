# Thread-count identity of whole scenario runs: every library fan-out
# (splitting optimizer, worst-case oracle, OPTU batches, failure chunks)
# runs on util::ThreadPool::global(), which COYOTE_THREADS sizes, so a
# scenario's BENCH document must be byte-identical at 1 and 8 threads once
# the fields that legitimately vary are removed: `git`, `timing`,
# `threads` and every `mem_peak_rss_mb`. LP work counters (lp_pivots,
# lp_solves, ...) stay in the comparison: the warm-start chains are fixed
# by the input, not by the thread count.
#
# Usage:
#   cmake -DEXPERIMENTS=<path to coyote_experiments> -DWORK_DIR=<scratch dir>
#         -P tests/thread_identity.cmake
cmake_minimum_required(VERSION 3.19)  # string(JSON)

if(NOT EXPERIMENTS OR NOT WORK_DIR)
  message(FATAL_ERROR "set -DEXPERIMENTS=<coyote_experiments> -DWORK_DIR=<dir>")
endif()

# Removes every member named `key` from the JSON document in `var`, at any
# depth.
function(strip_member var key)
  set(doc "${${var}}")
  string(JSON type TYPE "${doc}")
  if(NOT type STREQUAL "OBJECT" AND NOT type STREQUAL "ARRAY")
    return()
  endif()
  string(JSON n LENGTH "${doc}")
  # Backwards, so a removal leaves the indices still to visit unchanged.
  while(n GREATER 0)
    math(EXPR n "${n} - 1")
    if(type STREQUAL "OBJECT")
      string(JSON at MEMBER "${doc}" ${n})
      if(at STREQUAL key)
        string(JSON doc REMOVE "${doc}" "${at}")
        continue()
      endif()
    else()
      set(at ${n})
    endif()
    string(JSON child_type TYPE "${doc}" "${at}")
    if(child_type STREQUAL "OBJECT" OR child_type STREQUAL "ARRAY")
      string(JSON child GET "${doc}" "${at}")
      strip_member(child "${key}")
      string(JSON doc SET "${doc}" "${at}" "${child}")
    endif()
  endwhile()
  set(${var} "${doc}" PARENT_SCOPE)
endfunction()

# Runs coyote_experiments at COYOTE_THREADS=`threads` into `dir`.
function(run_scenarios threads dir)
  file(REMOVE_RECURSE "${dir}")
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E env COYOTE_THREADS=${threads}
            "${EXPERIMENTS}" --quick --quiet --json-dir "${dir}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
            "COYOTE_THREADS=${threads} coyote_experiments ${ARGN} exited "
            "${rc}:\n${out}")
  endif()
endfunction()

# Writes the normalized copy of every BENCH document in `dir` to
# `dir`/normalized and returns the document names in `out_names`.
function(normalize dir out_names)
  file(GLOB docs RELATIVE "${dir}" "${dir}/BENCH_*.json")
  list(SORT docs)
  file(MAKE_DIRECTORY "${dir}/normalized")
  foreach(name IN LISTS docs)
    file(READ "${dir}/${name}" doc)
    foreach(member git timing threads)
      string(JSON doc REMOVE "${doc}" ${member})
    endforeach()
    strip_member(doc mem_peak_rss_mb)
    file(WRITE "${dir}/normalized/${name}" "${doc}\n")
  endforeach()
  set(${out_names} "${docs}" PARENT_SCOPE)
endfunction()

# Requires the 1- and 8-thread runs of `case` to give the same normalized
# documents, byte for byte.
function(check_case case)
  set(base "${WORK_DIR}/${case}")
  run_scenarios(1 "${base}/t1" ${ARGN})
  run_scenarios(8 "${base}/t8" ${ARGN})
  normalize("${base}/t1" names1)
  normalize("${base}/t8" names8)
  if(NOT names1)
    message(FATAL_ERROR "${case}: no BENCH document written")
  endif()
  if(NOT names1 STREQUAL names8)
    message(FATAL_ERROR "${case}: BENCH documents differ in name: "
                        "[${names1}] vs [${names8}]")
  endif()
  foreach(name IN LISTS names1)
    set(a "${base}/t1/normalized/${name}")
    set(b "${base}/t8/normalized/${name}")
    execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${a}" "${b}"
                    RESULT_VARIABLE differ)
    if(differ)
      message(SEND_ERROR "${case}: ${name} differs between COYOTE_THREADS=1 "
                         "and 8; compare ${a} with ${b}")
    else()
      message(STATUS "${case}: ${name} identical")
    endif()
  endforeach()
endfunction()

check_case(smoke --filter smoke)
# Every registered scheme on one network: the six-scheme sweep.
check_case(six-schemes running-example
           --schemes ecmp,base,oblivious,partial,invcap-ecmp,semi-oblivious)
# 12 single-link failures, so several failure chunks run concurrently.
check_case(failure-chunks synth-grid3x3-gravity-fail1)
