"""``python -m lightsout``: the command-line front end."""

from lightsout.cli import main

if __name__ == "__main__":
    main()
