"""The wall-clock reference benchmark (see README.md in this directory)."""

#: Pinned to "1" by ``__main__`` before numpy is first imported: the
#: load is one driver on one thread.
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                  "MKL_NUM_THREADS")
